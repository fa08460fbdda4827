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
    assert after[-1] == ["chbez._record", "chbez.bbasis", "chbez.cli", "chbez.errors",
                         "chbez.io", "chbez.xform"]  # fmt: skip


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
