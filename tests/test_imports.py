"""The package surface is resolved lazily and each CLI command loads only what it runs.

Module loading is observed in fresh interpreters, since this test process
has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chbez
from chbez.cli import _PURE_BASIS_CELLS

SRC = Path(chbez.__file__).resolve().parent.parent
FIGURES = SRC / "chbez" / "figures"

ALL = [
    "MAX_DEGREE", "MAX_DIRECTIONS", "DEFAULT_MAX_ELEVATIONS",
    "BasisKind", "BasisSpace", "basis_matrix", "basis_value", "basis_vector",
    "bernstein_value", "normalizing_coefficients",
    "BezierPiece", "ControlCurve", "SubdivisionResult", "bezier_weights", "elevate",
    "evaluate", "piece_matches_subspace_weights", "reparametrize", "subdivide",
    "NumericalError", "RangeError", "SpecError",
    "CoordinateFunction", "CurveSpec", "PreImageResult", "Term", "TermFamily",
    "exact_curve", "exact_rational_curve", "min_order",
    "figure_names", "load_figure", "load_figure_text", "reconstruction_error",
    "render_figure", "run_gallery",
    "SpecDocument", "SvgPath", "export_obj", "export_svg", "export_table", "format_float",
    "parse_angle", "parse_document", "parse_spec", "parse_table",
    "ControlGrid", "Direction", "ProductTerm", "SurfaceCoordinateFunction", "SurfaceSpec",
    "evaluate_surface", "exact_rational_surface", "exact_surface", "min_orders",
    "sample_lattice",
    "TransformMatrix", "elevate_coefficient_vector", "elevation_weights", "transform_matrix",
]  # fmt: skip

MODULES = ["bbasis", "curve", "errors", "exact", "gallery", "io", "surface", "xform"]


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with the package on the path; its stdout is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def loaded_after(commands, tmp_path) -> list:
    """For each CLI argument list, the chbez modules loaded once it has run (cumulative)."""
    code = f"""
import json, sys
from chbez.cli import main
seen = []
for argv in {commands!r}:
    code = main(argv + ["--out", {str(tmp_path / "out")!r}])
    assert code == 0, (argv, code)
    seen.append(sorted(m for m in sys.modules if m.startswith("chbez.")))
print(json.dumps(seen))
"""
    return run_python(code)


def spec(name: str) -> list:
    return ["--spec", str(FIGURES / f"{name}.json")]


def test_import_loads_no_submodule():
    loaded = run_python(
        "import json, sys, chbez\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('chbez'))))"
    )
    assert loaded == ["chbez"]


def test_table_commands_load_no_spec_modules(tmp_path):
    commands = [
        ["xform", "--kind", "trig", "--alpha", "pi/2", "--order", "3"],
        ["basis", "--kind", "hyp", "--alpha", "1.5", "--order", "2", "--samples", "5"],
    ]
    after = loaded_after(commands, tmp_path)
    # xform runs on the pure path, since this process has not loaded numpy yet.
    assert after[-1] == ["chbez._lazy", "chbez._pure", "chbez._record", "chbez.bbasis",
                         "chbez.cli", "chbez.errors", "chbez.io"]  # fmt: skip


def test_pure_describe_and_elevate_load_no_curve_module(tmp_path):
    commands = [
        ["describe", *spec("hypocycloid")],
        ["describe-rational", *spec("lemniscate"), "--format", "json"],
        ["elevate", *spec("torus_knot")],
        ["elevate", *spec("rational_hyperbolic_arc_a")],
    ]
    after = loaded_after(commands, tmp_path)
    # Each runs on the pure path, which reads the exact module's rules but neither curve
    # nor xform.
    assert after[-1] == ["chbez._lazy", "chbez._pure", "chbez._record", "chbez.bbasis",
                         "chbez.cli", "chbez.errors", "chbez.exact", "chbez.io"]  # fmt: skip


def test_subdivide_loads_no_curve_module(tmp_path):
    commands = [
        ["subdivide", *spec("quadrifolium"), "--split-at", "1"],
        ["subdivide", *spec("lemniscate"), "--split-at", "1"],
    ]
    after = loaded_after(commands, tmp_path)
    # Both splits, plain and rational, run on the pure path under the split rule of bbasis.
    assert "chbez._pure" in after[-1]
    assert "chbez.curve" not in after[-1]


def test_only_gallery_loads_gallery(tmp_path):
    commands = [
        ["describe", *spec("hypocycloid")],
        ["describe", *spec("torus_patch"), "--format", "obj"],
        ["describe-rational", *spec("rational_trigonometric_patch")],
        ["sample", *spec("lemniscate"), "--samples", "5"],
        ["sample", *spec("trigonometric_volume_1"), "--samples", "3", "--format", "obj"],
        ["subdivide", *spec("quadrifolium"), "--split-at", "1"],
        ["elevate", *spec("torus_knot")],
    ]
    after = loaded_after(commands, tmp_path)
    assert "chbez.exact" in after[0]
    assert all("chbez.gallery" not in modules for modules in after)


def test_curve_commands_load_no_surface(tmp_path):
    commands = [
        ["describe", *spec("hypocycloid")],
        ["describe-rational", *spec("lemniscate")],
        ["subdivide", *spec("quadrifolium"), "--split-at", "1"],
        ["elevate", *spec("torus_knot")],
        ["elevate", *spec("rational_hyperbolic_arc_a")],
    ]
    after = loaded_after(commands, tmp_path)
    assert "chbez.exact" in after[-1]
    assert "chbez.surface" not in after[-1]


def test_all_is_unchanged():
    assert chbez.__all__ == ALL
    assert len(set(ALL)) == 60


def test_star_import_binds_every_public_name():
    names = run_python(
        "import json\nfrom chbez import *\n"
        "print(json.dumps(sorted(k for k in dir() if not k.startswith('__'))))"
    )
    assert names == sorted(ALL + ["json"])


def test_public_names_are_the_defining_modules_objects():
    for name in ALL:
        home = next(getattr(chbez, m) for m in MODULES if hasattr(getattr(chbez, m), name))
        assert getattr(chbez, name) is getattr(home, name)


def test_dir_lists_names_and_modules_before_any_import():
    listed = run_python("import json, chbez\nprint(json.dumps(dir(chbez)))")
    dunders = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
               "__name__", "__package__", "__path__", "__spec__", "__version__"]  # fmt: skip
    assert listed == sorted(ALL + MODULES + dunders)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        chbez.cli_main  # noqa: B018
    with pytest.raises(ImportError):
        exec("from chbez import no_such_name", {})


def test_every_public_name_is_in_its_home_modules_all():
    from importlib import import_module

    for name, home in chbez._HOMES.items():
        assert name in import_module(f"chbez.{home}").__all__, (name, home)


# Names public in their module but deliberately not at the top level.
MODULE_ONLY = {
    "bbasis": {"NormalizingCoefficients"},
    "exact": {"coordinate_ordinates"},
    "gallery": {"RenderedFigure"},
}


@pytest.mark.parametrize("module", MODULES + ["cli"])
def test_star_import_of_each_module_binds_its_all(module):
    from importlib import import_module

    mod = import_module(f"chbez.{module}")
    namespace = {}
    exec(f"from chbez.{module} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mod.__all__)
    homed = {name for name, home in chbez._HOMES.items() if home == module}
    want = {"main"} if module == "cli" else homed | MODULE_ONLY.get(module, set())
    assert set(mod.__all__) == want
    assert len(mod.__all__) == len(want)


# A child that runs ``python -m chbez.cli`` on its arguments (through runpy), stdout
# discarded, and prints on its last stderr line the exit code and whether numpy was loaded.
NUMPY_PROBE = r"""
import runpy, sys

sys.argv = ["chbez", *sys.argv[1:]]
try:
    runpy.run_module("chbez.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules, file=sys.stderr)
"""


def exit_and_numpy(argv) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    code, loaded = proc.stderr.splitlines()[-1].split()
    return int(code), loaded == "True"


def _bad_spec(tmp_path) -> list:
    path = tmp_path / "k40.json"
    path.write_text(json.dumps({**json.loads((FIGURES / "hypocycloid.json").read_text()),
                                "coords": [{"terms": [{"family": "cos", "k": 40, "a": 1}]}]}))
    return ["--spec", str(path)]


def _dip_spec(tmp_path) -> list:
    """lemniscate.json over the denominator 0.3 - 0.5 cos(2 u), which is -0.2 at u = 0."""
    doc = json.loads((FIGURES / "lemniscate.json").read_text())
    doc["coords"][-1]["terms"][0]["a"] = 0.3
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(doc))
    return ["--spec", str(path)]


def _low_spec(tmp_path) -> list:
    """lemniscate.json at alpha = 3 over 1.05 - cos(u - 1.5): positive weights need order 29."""
    doc = json.loads((FIGURES / "lemniscate.json").read_text())
    doc["alpha"] = 3
    doc["coords"][-1]["terms"] = [{"family": "cos", "k": 0, "a": 1.05},
                                  {"family": "cos", "k": 1, "a": -1, "phase": -1.5}]
    path = tmp_path / "low.json"
    path.write_text(json.dumps(doc))
    return ["--spec", str(path)]


def _cancel_spec(tmp_path) -> list:
    """The circle cos u, sin u at alpha = 2 over 1 + 2**31 cos u - 2**31 cos u.

    Its weights are all 1 at order 1, though its terms' absolute sum is 2**32 times the
    denominator's value.
    """
    doc = json.loads((FIGURES / "lemniscate.json").read_text())
    doc["alpha"] = 2
    doc["coords"] = [{"terms": [{"family": "cos", "k": 1, "a": 1}]},
                     {"terms": [{"family": "sin", "k": 1, "a": 1}]},
                     {"terms": [{"family": "cos", "k": 0, "a": 1},
                                {"family": "cos", "k": 1, "a": 2**31},
                                {"family": "cos", "k": 1, "a": -(2**31)}]}]
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps(doc))
    return ["--spec", str(path)]


def _specs(argv, tmp_path) -> list:
    """``argv`` with the spec files its placeholders BAD_SPEC, DIP_SPEC, LOW_SPEC and
    CANCEL_SPEC name."""
    made = {"BAD_SPEC": _bad_spec, "DIP_SPEC": _dip_spec, "LOW_SPEC": _low_spec,
            "CANCEL_SPEC": _cancel_spec}
    return [a for arg in argv for a in (made[arg](tmp_path) if arg in made else [arg])]


# Commands that end without numpy: xform, a trigonometric basis table of up to
# _PURE_BASIS_CELLS cells, and describe, describe-rational, elevate and subdivide of curves
# as csv or json (the pure path, a rational curve once its weights are positive), help and
# every refusal of a flag or a spec.
WITHOUT_NUMPY = {
    "xform": (0, ["xform", "--kind", "hyp", "--alpha", "0.5", "--order", "32", "--format", "json"]),
    "trig basis": (0, ["basis", "--kind", "trig", "--alpha", "pi/2", "--order", "32",
                       "--samples", "200"]),
    **{" ".join([command, figure, *flags]): (0, [command, *spec(figure), *flags])
       for figure in ("hypocycloid", "quadrifolium", "torus_knot")
       for command, flags in [
           ("describe", []), ("describe", ["--derivative", "2", "--format", "json"]),
           ("elevate", []), ("elevate", ["--order", "9", "--format", "json"]),
           ("subdivide", ["--split-at", "1"]),
       ]},
    **{" ".join([command, figure, *flags]): (0, [command, *spec(figure), *flags])
       for figure in ("lemniscate", "rational_hyperbolic_arc_a", "rational_hyperbolic_arc_b")
       for command, flags in [
           ("describe-rational", []), ("describe", ["--format", "json"]),
           ("elevate", []), ("elevate", ["--order", "9", "--format", "json"]),
           ("subdivide", ["--split-at", "1"]),
       ]},
    "rational": (0, ["describe", *spec("lemniscate")]),
    "cancelling denominator": (0, ["describe-rational", "CANCEL_SPEC", "--format", "json"]),
    "help": (0, ["--help"]),
    "command help": (0, ["sample", "--help"]),
    "flag error": (2, ["xform", "--kind", "trig", "--alpha", "4", "--order", "3"]),
    "parse error": (2, ["describe", "--format", "csv"]),
    "spec error": (2, ["describe", "BAD_SPEC"]),
    "not rational": (2, ["describe-rational", *spec("hypocycloid")]),
}

# Commands that need numpy: a rational curve that is refused (its denominator is
# sampled through numpy, to name a dip), svg or obj output of a curve's polygon of the pure
# path, sampling, a patch, a hyperbolic basis table or a trigonometric one of more than
# _PURE_BASIS_CELLS cells, and the gallery.
WITH_NUMPY = {
    "rational dip": (3, ["describe-rational", "DIP_SPEC"]),
    "weights not positive": (3, ["describe-rational", "LOW_SPEC", "--max-elevations", "3"]),
    "svg": (0, ["describe", *spec("hypocycloid"), "--format", "svg"]),
    "obj": (0, ["describe", *spec("torus_knot"), "--format", "obj"]),
    "patch": (0, ["describe", *spec("torus_patch")]),
    "sample": (0, ["sample", *spec("hypocycloid"), "--samples", "5"]),
    "basis": (0, ["basis", "--kind", "hyp", "--alpha", "1", "--order", "2"]),
    "trig basis past the cut-off": (0, ["basis", "--kind", "trig", "--alpha", "pi/2", "--order",
                                        "32", "--samples", str(_PURE_BASIS_CELLS // 66 + 1)]),
}


@pytest.mark.parametrize("code, argv", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY)
def test_commands_that_end_without_numpy(tmp_path, code, argv):
    assert exit_and_numpy(_specs(argv, tmp_path)) == (code, False)


@pytest.mark.parametrize("code, argv", WITH_NUMPY.values(), ids=WITH_NUMPY)
def test_commands_that_load_numpy(tmp_path, code, argv):
    assert exit_and_numpy(_specs(argv, tmp_path)) == (code, True)


def test_a_process_with_numpy_takes_the_pure_path(tmp_path):
    # The path does not depend on whether numpy is loaded: xform still needs no chbez.xform.
    code = f"""
import json, sys
import numpy
from chbez.cli import main
assert main(["xform", "--kind", "trig", "--alpha", "1", "--order", "3",
             "--out", {str(tmp_path / "out")!r}]) == 0
print(json.dumps("chbez.xform" in sys.modules))
"""
    assert run_python(code) is False
