"""The pure path (``chbez._pure``) gives the bits, bytes and refusals of the public library.

The CLI takes the pure path for xform and for trigonometric basis tables up
to a cell cut-off, and describes, elevates and splits every curve on it, in
every format and for every command, sample included.
The tests here compare its kernels with the library's bits, and run each
command twice: as it is, and with ``pure_sweep.LIBRARY`` (the public
library behind the pure path's interface) in place of the package
attribute ``chbez._pure``.  Random spaces and specs are drawn from seeded
generators.
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chbez
from chbez import (BasisKind, BasisSpace, CurveSpec, NumericalError, RangeError, export_table,
                   parse_document)
from chbez import _pure
from chbez.bbasis import _sums_by_order
from chbez.cli import _PURE_BASIS_CELLS
from chbez.exact import _check_denominator, _describe
from chbez.xform import _step_table, _transform_rows
from test_cli import DERIVED_DOCS, FAILING_COMMANDS, RAW_SPECS
from test_cli import test_failing_command as failing_command
from test_cli_digests import COMMANDS
from test_cli_process import child_env

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pure_sweep  # noqa: E402

FIGURES = Path(chbez.__file__).parent / "figures"
TRIG, HYP = BasisKind.TRIGONOMETRIC, BasisKind.HYPERBOLIC
PURE_COMMANDS = ("xform", "basis", "describe", "describe-rational", "elevate", "subdivide")


def random_space(rng: random.Random, kind: BasisKind, n: int) -> BasisSpace:
    """A space of order n: alpha anywhere, or near pi (trigonometric) or n * alpha = 300."""
    if kind is TRIG:
        alpha = rng.choice([rng.uniform(1e-3, 3.1), math.pi * (1.0 - rng.uniform(1e-15, 1e-6))])
    else:
        alpha = rng.choice([rng.uniform(1e-3, 300.0 / n), 300.0 / n * rng.uniform(0.99, 1.0)])
    return BasisSpace(kind, n, alpha)


def spaces(seed: int, count: int) -> list:
    rng = random.Random(seed)
    kinds = [TRIG, HYP]
    return [random_space(rng, kinds[i % 2], n) for i in range(count) for n in [1 + i % 32]]


@pytest.mark.parametrize("seed", range(4))
def test_transform_rows_match_bit_for_bit(seed):
    for space in spaces(seed, 64):
        pure = np.array(_pure.transform_rows(space))
        assert pure.tobytes() == _transform_rows(space).tobytes(), space


@pytest.mark.parametrize("seed", range(2))
def test_sums_and_step_weights_match_bit_for_bit(seed):
    for space in spaces(10 + seed, 64):
        orders = [1, *range(1, space.n + 1)]
        pure = np.array(_pure._sums_by_order(space, orders))
        assert pure.tobytes() == _sums_by_order(space, orders).tobytes(), space
        table = _step_table(space, 1)
        for m, step in enumerate(_pure._step_table(space, 1), start=1):
            assert np.array(step).tobytes() == table[m - 1, :, : 2 * m + 1].tobytes(), space


def run_both(argv) -> tuple:
    """(code, stdout, stderr) of ``argv`` with the library in place of the pure path, then as it
    is, and whether the second run, if it succeeded, read the pure path."""
    library = pure_sweep.run(argv, True)[0]
    pure, taken, _ = pure_sweep.run(argv, False)
    return library, pure, pure[0] != 0 or bool(taken)


def random_doc(rng: random.Random) -> dict:
    """A plain curve document of 1 to 4 coordinates, each a few terms of frequency up to 8."""
    kind = rng.choice([TRIG, HYP])
    nu = rng.randint(0, 8)
    alpha = random_space(rng, kind, max(nu, 1)).alpha
    names = ("cos", "sin") if kind is TRIG else ("cosh", "sinh")
    coords = []
    for _ in range(rng.randint(1, 4)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            term = {"family": rng.choice(names), "k": rng.randint(0, nu),
                    "a": rng.choice([0.0, rng.uniform(-10.0, 10.0), rng.uniform(-1e300, 1e300)])}
            if rng.random() < 0.5:
                term["phase"] = rng.uniform(-4.0, 4.0)
            terms.append(term)
        coords.append({"terms": terms})
    return {"version": 1, "type": "curve", "kind": kind.value, "alpha": alpha, "coords": coords}


def random_argv(rng: random.Random, path: str, doc: dict) -> list:
    command = rng.choice(["describe", "elevate", "subdivide"])
    argv = [command, "--spec", path]
    if rng.random() < 0.6:
        argv += ["--order", str(rng.randint(0, 33))]
    if command == "describe" and rng.random() < 0.6:
        argv += ["--derivative", str(rng.choice([0, 1, 2, 5, 40]))]
    if command == "subdivide":
        alpha = doc["alpha"]
        u0 = rng.choice([rng.uniform(0.0, alpha), alpha * rng.uniform(1e-17, 1e-10), 1e-310])
        return argv + ["--split-at", repr(u0)]
    return argv + ["--format", rng.choice(["csv", "json"])]


def random_denominator(rng: random.Random, kind: BasisKind, alpha: float) -> dict:
    """A denominator positive by construction (as ``perfbench/gen.py`` draws one), one that
    dips below 0, or one whose minimum grazes 0 from above, by 1e-13 to 1e-6 of its size.

    Its lowest point lies inside [0, alpha] or just outside.
    """
    a = rng.uniform(0.2, 1.0)
    lift = rng.choice([rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.2),
                       1.0 + 10.0 ** rng.uniform(-13.0, -6.0)])
    low = rng.uniform(-0.5, alpha + 0.5)
    if kind is TRIG:  # a (lift - cos(u - low)) when lift > 1
        terms = [{"family": "cos", "k": 0, "a": lift * a},
                 {"family": "cos", "k": 1, "a": -a, "phase": -low}]
    else:  # a (lift - 2 + cosh(u - low)), and perhaps a sinh term
        terms = [{"family": "cosh", "k": 0, "a": (lift - 2.0) * a},
                 {"family": "cosh", "k": 1, "a": a, "phase": -low}]
        if rng.random() < 0.3:
            terms.append({"family": "sinh", "k": 1, "a": rng.uniform(-0.9, 0.9) * a})
    return {"terms": terms}


def random_rational_doc(rng: random.Random) -> dict:
    """A random plain curve document with a denominator of :func:`random_denominator` appended."""
    doc = random_doc(rng)
    kind = BasisKind(doc["kind"])
    doc["coords"].append(random_denominator(rng, kind, doc["alpha"]))
    return {**doc, "rational": True}


def random_rational_argv(rng: random.Random, path: str, doc: dict) -> list:
    command = rng.choice(["describe", "describe-rational", "elevate", "subdivide"])
    argv = [command, "--spec", path, "--max-elevations", str(rng.randint(0, 3))]
    if rng.random() < 0.3:
        argv += ["--order", str(rng.randint(0, 10))]
    if command == "subdivide":
        return argv + ["--split-at", repr(rng.uniform(0.0, doc["alpha"]))]
    return argv + ["--format", rng.choice(["csv", "json"])]


@pytest.mark.parametrize("seed", range(8))
def test_random_rational_specs_give_the_same_bytes_and_refusals(tmp_path, seed):
    rng = random.Random(200 + seed)
    outcomes = set()
    for i in range(40):
        doc = random_rational_doc(rng)
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(doc))
        argv = random_rational_argv(rng, str(path), doc)
        library, pure, took_pure = run_both(argv)
        assert (pure, took_pure) == (library, True), argv
        outcomes.add(pure[2].split(" on [")[0].split(" after")[0] if pure[0] == 3 else pure[0])
    # Some curves were described, some dipped at a sample and some kept weights not positive.
    assert {0, "numerical failure: denominator is not positive",
            "numerical failure: weights not positive"} <= outcomes


@pytest.mark.parametrize("seed", range(4))
def test_certified_denominators_pass_the_numpy_check(seed):
    # Positive weights are the certificate: every denominator whose rational description
    # succeeds, and so is never sampled, passes the sampled check too.
    rng = random.Random(300 + seed)
    verdicts = []
    for _ in range(100):
        spec = parse_document(json.dumps(random_rational_doc(rng))).spec
        try:
            _describe(spec, rational=True, max_elevations=3)
            certified = True
        except (NumericalError, RangeError):
            certified = False
        try:
            _check_denominator(spec)
            verdicts.append((certified, True))
        except NumericalError:
            verdicts.append((certified, False))
    assert (True, False) not in verdicts
    assert {(True, True), (False, True), (False, False)} <= set(verdicts)


@pytest.mark.parametrize("seed", range(8))
def test_random_specs_give_the_same_bytes_and_refusals(tmp_path, seed):
    rng = random.Random(100 + seed)
    for i in range(40):
        doc = random_doc(rng)
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(doc))
        argv = random_argv(rng, str(path), doc)
        library, pure, took_pure = run_both(argv)
        assert (pure, took_pure) == (library, True), argv


@pytest.mark.parametrize("seed", range(4))
def test_random_trig_basis_tables_give_the_same_bytes_and_refusals(seed):
    rng = random.Random(f"pure-basis:{500 + seed}")
    for _ in range(30):
        argv = pure_sweep.draw_basis(rng)
        (library, _, _), (pure, taken, numpy_read) = (pure_sweep.run(argv, True),
                                                      pure_sweep.run(argv, False))
        assert pure == library, argv
        assert pure_sweep.on_path(argv, pure, taken, numpy_read), argv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order", [1, 32])
def test_basis_tables_on_both_sides_of_the_cut_off_give_the_library_bytes(order, fmt):
    # No workload draws a table past the cut-off, so this test covers the numpy side.
    space = BasisSpace(TRIG, order, 2.5)
    columns = ["u"] + [f"b{i}" for i in range(space.dimension)]
    rows = _PURE_BASIS_CELLS // len(columns)
    for samples, pure in [(rows, True), (rows + 1, False)]:
        argv = ["basis", "--kind", "trig", "--alpha", "2.5", "--order", str(order),
                "--samples", str(samples), "--format", fmt]
        result, taken, numpy_read = pure_sweep.run(argv, False)
        expected = export_table(pure_sweep.basis_table(space, samples), fmt, columns)
        assert result == (0, expected, "")
        assert (bool(taken), bool(numpy_read)) == (pure, not pure)


def _eligible(argv) -> bool:
    """Whether a CLI digest command runs without numpy: xform, a trigonometric basis table, or
    a curve written as csv or json."""
    if argv[0] == "xform":
        return True
    if argv[0] == "basis":
        return pure_sweep.pure_basis(argv)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    if argv[0] not in PURE_COMMANDS or fmt not in ("csv", "json"):
        return False
    return isinstance(parse_document(Path(argv[argv.index("--spec") + 1]).read_text()).spec,
                      CurveSpec)


ELIGIBLE = {key: argv for key, argv in COMMANDS.items() if _eligible(argv)}

# A child that runs each argument list of its stdin (JSON) through chbez.cli.main
# and prints, as JSON, each (code, stdout, stderr), and whether numpy was loaded.
CHILD = r"""
import contextlib, io, json, sys
from chbez.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy": "numpy" in sys.modules, "results": results}))
"""


def test_digest_commands_without_numpy_match_the_numpy_path():
    # The child runs without numpy; the reference, the library, runs on numpy.
    assert len(ELIGIBLE) >= 90
    assert {argv[0] for argv in ELIGIBLE.values()} == set(PURE_COMMANDS)
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(list(ELIGIBLE.values())),
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    child = json.loads(proc.stdout)
    assert child["numpy"] is False
    for key, argv, result in zip(ELIGIBLE, ELIGIBLE.values(), child["results"]):
        assert tuple(result) == pure_sweep.run(argv, True)[0], key


# Digest commands of curves that load numpy to draw or to sample the polygon.
DRAWN = {key: argv for key, argv in COMMANDS.items()
         if "--spec" in argv and not _eligible(argv) and isinstance(
             parse_document(Path(argv[argv.index("--spec") + 1]).read_text()).spec, CurveSpec)}


def test_drawn_and_sampled_digest_commands_match_the_library():
    # svg and obj output and sample of a curve draw or sample the polygon of the pure path.
    assert {argv[0] for argv in DRAWN.values()} == {"describe", "elevate", "sample"}
    assert {argv[argv.index("--format") + 1] for argv in DRAWN.values() if "--format" in argv} \
        == {"csv", "svg", "obj"}
    for key, argv in DRAWN.items():
        library, pure, took_pure = run_both(argv)
        assert (pure, took_pure) == (library, True), key


PURE_ROWS = [row for row in FAILING_COMMANDS if row[0] in (*PURE_COMMANDS, "sample")]


def _takes_pure_path(figure: str) -> bool:
    """Whether a FAILING_COMMANDS row that reaches the description takes the pure path."""
    if not figure or figure in RAW_SPECS:
        return True
    doc = DERIVED_DOCS[figure]() if figure in DERIVED_DOCS else json.loads(
        (FIGURES / f"{figure}.json").read_text())
    return doc["type"] == "curve"


@pytest.mark.parametrize(
    "command, figure, flags, code, stderr",
    PURE_ROWS,
    ids=[" ".join([c, f, *fl]) for c, f, fl, _, _ in PURE_ROWS],
)
def test_failing_command_on_the_pure_path(capsys, monkeypatch, tmp_path, command, figure, flags,
                                          code, stderr):
    # Only a row of a curve or of xform reads the pure path, and the library in its place
    # gives the row's refusal too (test_failing_command runs it on the pure path).
    reads = pure_sweep.Reads(pure_sweep.LIBRARY)
    monkeypatch.setattr(chbez, "_pure", reads)
    failing_command(capsys, tmp_path, command, figure, flags, code, stderr)
    assert not reads.names or _takes_pure_path(figure)
    # A split or weights refused come from the description; a dip of the denominator can be
    # named before it, where an order below the minimum is refused.
    if code == 3 and "denominator" not in stderr:
        assert bool(reads.names) == _takes_pure_path(figure)
