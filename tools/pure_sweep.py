"""Compare the CLI's pure path (``chbez._pure``) with the public library on many seeded inputs.

The CLI runs ``xform`` and trigonometric ``basis`` tables of up to
``cli._PURE_BASIS_CELLS`` cells on the pure path, and describes, elevates
and splits every curve there, in every format and for every command,
``sample`` included.  This script runs each command through
``chbez.cli.main`` twice: as it is, and with :data:`LIBRARY` in place of the
package attribute ``chbez._pure``, which the CLI reads when it runs.
:data:`LIBRARY` builds the same output from the public library
(``transform_matrix``, ``basis_matrix``, ``exact_curve``,
``exact_rational_curve``, ``elevate``, ``subdivide`` and ``export_table``).
The flags are checked, and svg and obj drawn and curves sampled, by the
same CLI code on both runs.  Each of ``count`` seeded draws makes three
commands:

- ``xform`` of a random space: either kind, order 1 to 32, alpha anywhere
  in range, just below pi (trigonometric) or just within the overflow guard
  ``n * alpha <= 300`` (hyperbolic);
- ``describe`` (with ``--derivative``), ``describe-rational``, ``elevate``,
  ``subdivide`` or ``sample`` (with ``--derivative`` and ``--samples``) of
  a random curve of 1 to 4 coordinates in such a space, with random
  ``--order``, ``--split-at`` and ``--format``: csv or json, and svg for a
  planar curve or obj for a 3-d one where the command writes them;
  amplitudes up to 1e300 and now and then a hyperbolic phase of 800, so
  refusals (overflow, split points too close to an end) come up too.  A
  third of the curves are rational, with a denominator that is positive by
  construction, dips below 0 or grazes 0, and a ``--max-elevations`` of 0
  to 3 half the time;
- ``basis`` of a random trigonometric space, drawn from a generator of its
  own so the two commands above keep their streams: order 1 to 32, alpha
  from the "too small" refusal to just below pi, 2 to a few hundred
  samples, or now and then the most rows of the cut-off or one row more,
  as csv or json.

Exit code, stdout and stderr must be equal, so every float's bits and every
refusal's text are compared.  Every command that succeeds must have read
``chbez._pure``, except a ``basis`` table past the cut-off, which must not;
and a ``basis`` table that reads it must not read the CLI's numpy.  On the
first difference, or a success on the wrong path, the script prints the
command (and writes its spec next to it) and exits 1; otherwise it prints
how many commands matched, and how many of them were rational curves and
basis commands that took the pure path.  Uses numpy and the standard library
only.  Run from the root of the repository:
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
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import chbez._pure  # noqa: E402
import chbez.cli  # noqa: E402
from chbez import (BasisSpace, ControlCurve, basis_matrix, elevate, exact_curve,  # noqa: E402
                   exact_rational_curve, export_table, subdivide, transform_matrix)
from chbez.cli import _PURE_BASIS_CELLS  # noqa: E402

KINDS = ("trigonometric", "hyperbolic")
PURE = chbez._pure


def _polygon(net: ControlCurve):
    """A control curve of the library as a polygon of the pure path (lists of floats)."""
    weights = None if net.weights is None else net.weights.tolist()
    return PURE.Polygon(net.space, net.points.tolist(), weights)


def _curve(polygon) -> ControlCurve:
    """A polygon of the pure path as a control curve of the library."""
    weights = None if polygon.weights is None else np.array(polygon.weights)
    return ControlCurve(polygon.space, np.array(polygon.points), weights)


def _describe(spec, orders, r, rational, max_elevations):
    n = None if orders is None else orders[0]
    if rational:
        return _polygon(exact_rational_curve(spec, n, max_elevations).curve)
    return _polygon(exact_curve(spec, n, (r or (0,))[0]))


def _piece(p) -> dict:
    """A piece of a split as ``subdivide`` writes it."""
    return {"interval": list(p.u_interval), "points": p.points.tolist(),
            "weights": p.weights.tolist()}


def _subdivide(polygon, u0: float) -> dict:
    result = subdivide(_curve(polygon), u0)
    return {"split_ratio": result.split_ratio, "left": _piece(result.left),
            "right": _piece(result.right)}


def basis_table(space: BasisSpace, samples: int):
    """The table of ``basis``: each parameter of the grid, then the basis values there."""
    us = np.linspace(0.0, space.alpha, samples)
    return np.hstack([us[:, None], basis_matrix(space, us)])


# What chbez.cli calls of chbez._pure, built from the public library: the reference.
LIBRARY = SimpleNamespace(
    transform_rows=lambda space: transform_matrix(space).rows,
    basis_table=basis_table,
    table=lambda rows, fmt, columns=None: export_table(np.array(rows, dtype=float), fmt, columns),
    describe=_describe,
    elevate=lambda polygon, z: _polygon(elevate(_curve(polygon), z)),
    subdivide=_subdivide,
)

class Reads:
    """``module`` in the place of ``chbez._pure``, listing in ``names`` what the CLI reads of it."""

    def __init__(self, module):
        self.module, self.names = module, []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self.module, name)


def run(argv, library: bool) -> tuple:
    """``chbez.cli.main(argv)`` on the pure path, or with :data:`LIBRARY` in its place.

    Returns the exit code, stdout and stderr, the names the CLI read of
    ``chbez._pure`` and the names it read of its own numpy (``chbez.cli.np``).
    """
    reads, numpy_reads = Reads(LIBRARY if library else PURE), Reads(np)
    out, err = io.StringIO(), io.StringIO()
    chbez._pure, stand_in, chbez.cli.np = reads, chbez.cli.np, numpy_reads
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = chbez.cli.main(list(argv))
    finally:
        chbez._pure, chbez.cli.np = PURE, stand_in
    return (code, out.getvalue(), err.getvalue()), reads.names, numpy_reads.names


def draw_space(rng: random.Random, kind: str, n: int) -> float:
    """An alpha of a space of order n: anywhere, near pi, or near the overflow guard."""
    if kind == "trigonometric":
        return rng.choice([rng.uniform(1e-3, 3.14), math.pi * (1.0 - rng.uniform(1e-15, 1e-6))])
    return rng.choice([rng.uniform(1e-3, 300.0 / n), 300.0 / n * rng.uniform(0.99, 1.0)])


def draw_denominator(rng: random.Random, kind: str, alpha: float) -> dict:
    """A denominator, positive by construction (as ``perfbench/gen.py`` draws one), dipping
    below 0, or grazing 0 from above by 1e-12 to 1e-7 of its size.

    Its lowest point lies inside [0, alpha] or just outside.
    """
    a = rng.uniform(0.2, 1.0)
    lift = rng.choice([rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.2),
                       1.0 + 10.0 ** rng.uniform(-12, -7)])
    low = rng.uniform(-0.5, alpha + 0.5)
    if kind == "trigonometric":  # a (lift + cos(u + pi - low))
        terms = [{"family": "cos", "k": 0, "a": lift * a},
                 {"family": "cos", "k": 1, "a": a, "phase": math.pi - low}]
    else:  # a (lift - 2 + cosh(u - low)), and perhaps a sinh term
        terms = [{"family": "cosh", "k": 0, "a": (lift - 2.0) * a},
                 {"family": "cosh", "k": 1, "a": a, "phase": -low}]
        if rng.random() < 0.5:
            terms.append({"family": "sinh", "k": 1, "a": rng.uniform(-0.9, 0.9) * a})
    return {"terms": terms}


def draw_doc(rng: random.Random) -> dict:
    """A curve of 1 to 4 coordinates, a third of them rational with one coordinate more."""
    kind, nu = rng.choice(KINDS), rng.randint(0, 12)
    names = ("cos", "sin") if kind == "trigonometric" else ("cosh", "sinh")
    coords = []
    for _ in range(rng.randint(1, 4)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            amplitude = rng.choice([0.0, rng.uniform(-10.0, 10.0), rng.uniform(-1e300, 1e300)])
            term = {"family": rng.choice(names), "k": rng.randint(0, nu), "a": amplitude}
            if rng.random() < 0.5:
                term["phase"] = rng.uniform(-4.0, 4.0) if rng.random() < 0.98 else 800.0
            terms.append(term)
        coords.append({"terms": terms})
    alpha = draw_space(rng, kind, max(nu, 1))
    rational = rng.random() < 1 / 3
    if rational:
        coords.append(draw_denominator(rng, kind, alpha))
    return {"version": 1, "type": "curve", "kind": kind, "alpha": alpha, "rational": rational,
            "coords": coords}


def draw_format(rng: random.Random, command: str, channels: int) -> str:
    """csv or json, or svg for a planar curve or obj for a 3-d one where ``command`` writes it."""
    drawn = {2: "svg", 3: "obj"}.get(channels)
    if drawn == "obj" and command == "elevate":
        drawn = None
    return rng.choice(["csv", "json", drawn] if drawn else ["csv", "json"])


def draw_commands(rng: random.Random, spec: Path) -> list:
    """An xform command, and a describe, describe-rational, elevate, subdivide or sample command."""
    kind, n = rng.choice(KINDS), rng.randint(1, 32)
    xform = ["xform", "--kind", kind, "--alpha", repr(draw_space(rng, kind, n)), "--order", str(n),
             "--format", rng.choice(["csv", "json"])]
    doc = draw_doc(rng)
    spec.write_text(json.dumps(doc))
    command = rng.choice(["describe", "describe-rational", "elevate", "subdivide", "sample"])
    argv = [command, "--spec", str(spec)]
    if rng.random() < 0.6:
        argv += ["--order", str(rng.randint(0, 33))]
    if doc["rational"] and rng.random() < 0.5:
        argv += ["--max-elevations", str(rng.randint(0, 3))]
    if command in ("describe", "sample") and rng.random() < (0.1 if doc["rational"] else 0.6):
        argv += ["--derivative", str(rng.choice([0, 1, 2, 3, 7, 40]))]
    if command == "sample":
        argv += ["--samples", str(rng.randint(2, 40))]
    if command == "subdivide":
        alpha = doc["alpha"]
        u0 = rng.choice([rng.uniform(0.0, alpha), alpha * rng.uniform(1e-17, 1e-10), 1e-310])
        argv += ["--split-at", repr(u0)]
    else:
        argv += ["--format", draw_format(rng, command, len(doc["coords"]) - doc["rational"])]
    return [xform, argv]


def draw_basis(rng: random.Random) -> list:
    """A basis command of a trigonometric space, its table at most one row past the cut-off."""
    n = rng.randint(1, 32)
    alpha = rng.choice([rng.uniform(1e-3, 3.14), math.pi * (1.0 - rng.uniform(1e-15, 1e-6)),
                        10.0 ** rng.uniform(-310.0, -305.0)])
    rows = _PURE_BASIS_CELLS // (2 * n + 2)
    samples = rng.choices([rng.randint(2, 400), rows, rows + 1], [48, 1, 1])[0]
    return ["basis", "--kind", "trig", "--alpha", repr(alpha), "--order", str(n),
            "--samples", str(samples), "--format", rng.choice(["csv", "json"])]


def pure_basis(argv) -> bool:
    """Whether a basis command that succeeds writes its table on the pure path."""
    samples, n = int(argv[argv.index("--samples") + 1]), int(argv[argv.index("--order") + 1])
    trig = argv[argv.index("--kind") + 1] in ("trig", "trigonometric")
    return trig and samples * (2 * n + 2) <= _PURE_BASIS_CELLS


def on_path(argv, result, taken, numpy_read) -> bool:
    """Whether a command that succeeded read the pure path as the CLI's rule says it must."""
    if result[0] != 0:
        return True
    if argv[0] != "basis":
        return bool(taken)
    return bool(taken) == pure_basis(argv) and not (taken and numpy_read)


def main(count: int, seed: int) -> int:
    rng, basis_rng = random.Random(f"pure-sweep:{seed}"), random.Random(f"pure-basis:{seed}")
    matched = rational = tables = 0
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        for _ in range(count):
            xform, command = draw_commands(rng, spec)
            for argv in (xform, command, draw_basis(basis_rng)):
                (cli, taken, numpy_read), (library, _, _) = run(argv, False), run(argv, True)
                if cli != library or not on_path(argv, cli, taken, numpy_read):
                    kept = Path("pure_sweep_spec.json")
                    kept.write_text(spec.read_text())
                    print(f"mismatch: {' '.join(argv)} (spec kept as {kept})")
                    print(f"pure path: exit {cli[0]}, stderr {cli[2]!r}, read {taken}, "
                          f"numpy read {numpy_read}")
                    print(f"library:   exit {library[0]}, stderr {library[2]!r}")
                    return 1
                matched += 1
                tables += argv[0] == "basis" and bool(taken)
                if argv is command:
                    rational += json.loads(spec.read_text())["rational"] and bool(taken)
    print(f"{matched} commands gave the library's exit code, stdout and stderr on the pure path "
          f"({rational} on rational curves, {tables} basis commands)")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*(args + [1000, 0][len(args):])))
