"""Frozen CLI output: every command below keeps its recorded SHA-256.

For every bundled figure ``data/cli_digests.json`` holds the digest of the
stdout of ``describe`` (csv, json), ``sample`` (csv, and obj for 3-d or svg
for planar output), and of ``xform``
and ``basis`` for the space of each direction at the minimum order and four
orders above it.  Where they apply it also holds ``elevate`` (csv, json,
svg for planar curves), ``subdivide`` at a third of alpha, ``describe`` and
``sample`` with ``--derivative 1`` (plain specs), ``describe`` as svg
(planar curves) or obj (3-d points) and ``describe-rational``.  The output goes through numpy and libm, whose last bits may
change between versions, so under other Python or numpy versions the test
skips.

``python tests/test_cli_digests.py`` records the digests of the code it
imports; do that only when an output change is intended.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import chbez
from chbez import CurveSpec, min_order, min_orders, parse_document
from chbez.cli import main

DATA = Path(__file__).parent / "data" / "cli_digests.json"
FIGURES = Path(chbez.__file__).parent / "figures"

# Lattice samples per direction for ``sample``, by parametric dimension.
SAMPLES = {1: 200, 2: 25, 3: 9}
BASIS_SAMPLES = 65
ORDER_STEP = 4


def commands() -> dict[str, list[str]]:
    """Readable key -> argv for every figure, in a fixed order."""
    out = {}
    for path in sorted(FIGURES.glob("*.json")):
        name, doc = path.stem, parse_document(path.read_text())
        spec = doc.spec
        if isinstance(spec, CurveSpec):
            spaces = [(spec.kind, spec.alpha, min_order(spec))]
            channels = spec.dimension
        else:
            spaces = [(d.kind, d.alpha, n) for d, n in zip(spec.directions, min_orders(spec))]
            channels = spec.channels
        samples = SAMPLES[len(spaces)]
        for fmt in ("csv", "json"):
            out[f"describe {name} {fmt}"] = ["describe", "--spec", str(path), "--format", fmt]
        # OBJ takes 3-d points; planar curves are drawn as SVG instead.
        for fmt in ("csv", "obj" if channels - doc.rational == 3 else "svg"):
            out[f"sample {name} {fmt}"] = [
                "sample", "--spec", str(path), "--samples", str(samples), "--format", fmt,
            ]
        for axis, (kind, alpha, n) in enumerate(spaces):
            for order in (n, n + ORDER_STEP):
                flags = ["--kind", kind.value, "--alpha", repr(alpha), "--order", str(order)]
                out[f"xform {name} axis {axis} order {order}"] = ["xform", *flags]
                out[f"basis {name} axis {axis} order {order}"] = [
                    "basis", *flags, "--samples", str(BASIS_SAMPLES),
                ]
        out.update(control_commands(name, str(path), doc, samples))
    return out


def control_commands(name: str, path: str, doc, samples: int) -> dict[str, list[str]]:
    """``elevate``, ``subdivide``, derivative, svg/obj and rational commands."""
    spec = doc.spec
    curve = isinstance(spec, CurveSpec)
    dimension = (spec.dimension if curve else spec.channels) - doc.rational
    out = {}
    if curve:
        for fmt in ("csv", "json", "svg") if dimension == 2 else ("csv", "json"):
            out[f"elevate {name} {fmt}"] = ["elevate", "--spec", path, "--format", fmt]
        out[f"subdivide {name} third"] = [
            "subdivide", "--spec", path, "--split-at", repr(spec.alpha / 3.0),
        ]
    if not doc.rational:
        out[f"describe {name} derivative 1"] = [
            "describe", "--spec", path, "--derivative", "1",
        ]
        out[f"sample {name} derivative 1"] = [
            "sample", "--spec", path, "--samples", str(samples), "--derivative", "1",
        ]
    if curve and dimension == 2:
        out[f"describe {name} svg"] = ["describe", "--spec", path, "--format", "svg"]
    if dimension == 3:
        out[f"describe {name} obj"] = ["describe", "--spec", path, "--format", "obj"]
    if doc.rational:
        out[f"describe-rational {name} csv"] = ["describe-rational", "--spec", path]
    return out


def stdout_digest(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sha256": {key: stdout_digest(argv) for key, argv in COMMANDS.items()},
    }


COMMANDS = commands()
FROZEN = json.loads(DATA.read_text()) if DATA.exists() else None


def test_command_list_matches_the_recording():
    assert list(COMMANDS) == list(FROZEN["sha256"])


@pytest.mark.parametrize("key", list(COMMANDS))
def test_cli_output_matches_frozen_digest(key):
    recorded = (FROZEN["python"], FROZEN["numpy"])
    running = (platform.python_version(), np.__version__)
    if running != recorded:
        pytest.skip(
            f"digests recorded under Python {recorded[0]} / numpy {recorded[1]}, "
            f"running Python {running[0]} / numpy {running[1]}"
        )
    assert stdout_digest(COMMANDS[key]) == FROZEN["sha256"][key]


def _numpy_describer(*args):
    raise AssertionError("a curve was described by exact._describe")


# Curves drawn or sampled through numpy: the polygon still comes from the pure path.
DRAWN_CURVES = ["describe hypocycloid svg", "describe torus_knot obj", "elevate hypocycloid svg",
                "sample hypocycloid csv", "sample hypocycloid svg", "sample torus_knot obj",
                "sample lemniscate svg"]


@pytest.mark.parametrize("key", DRAWN_CURVES)
def test_curves_are_described_on_the_pure_path_in_every_format(monkeypatch, key):
    monkeypatch.setattr("chbez.exact._describe", _numpy_describer)
    test_cli_output_matches_frozen_digest(key)


def test_patches_are_described_on_numpy(monkeypatch):
    monkeypatch.setattr("chbez.exact._describe", _numpy_describer)
    with pytest.raises(AssertionError, match="exact._describe"):
        main(["describe", "--spec", str(FIGURES / "torus_patch.json")])


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=False) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {DATA}", file=sys.stderr)
