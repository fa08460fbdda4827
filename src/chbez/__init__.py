"""Control point descriptions of trigonometric and hyperbolic geometry.

Curves, tensor product patches and volumes whose coordinates are finite
sums of cos/sin (or cosh/sinh) terms admit an exact representation as
convex combinations of control points with the normalized B-basis of the
matching function space.  This package computes those control points (also
for rational geometry and arbitrary derivatives), evaluates, subdivides and
order elevates the results, and ships deterministic SVG/OBJ/CSV exporters
plus a small CLI around the bundled example figures.
"""

__version__ = "0.1.0"

# Public name -> module that defines it, in the order of ``__all__``: the only
# list of public names.  Each home module takes its ``__all__`` from here by
# :func:`_exports` (adding a name it alone makes public, if it has one).  A
# name (or a module) is imported on first use, so ``import chbez`` loads no module.
_HOMES = {
    "MAX_DEGREE": "bbasis",
    "MAX_DIRECTIONS": "surface",
    "DEFAULT_MAX_ELEVATIONS": "exact",
    **dict.fromkeys(("BasisKind", "BasisSpace", "basis_matrix", "basis_value", "basis_vector",
                     "bernstein_value", "normalizing_coefficients"), "bbasis"),
    **dict.fromkeys(("BezierPiece", "ControlCurve", "SubdivisionResult", "bezier_weights",
                     "elevate", "evaluate", "piece_matches_subspace_weights", "reparametrize",
                     "subdivide"), "curve"),
    **dict.fromkeys(("NumericalError", "RangeError", "SpecError"), "errors"),
    **dict.fromkeys(("CoordinateFunction", "CurveSpec", "PreImageResult", "Term", "TermFamily",
                     "exact_curve", "exact_rational_curve", "min_order"), "exact"),
    **dict.fromkeys(("figure_names", "load_figure", "load_figure_text", "reconstruction_error",
                     "render_figure", "run_gallery"), "gallery"),
    **dict.fromkeys(("SpecDocument", "SvgPath", "export_obj", "export_svg", "export_table",
                     "format_float", "parse_angle", "parse_document", "parse_spec", "parse_table"),
                     "io"),
    **dict.fromkeys(("ControlGrid", "Direction", "ProductTerm", "SurfaceCoordinateFunction",
                     "SurfaceSpec", "evaluate_surface", "exact_rational_surface", "exact_surface",
                     "min_orders", "sample_lattice"), "surface"),
    **dict.fromkeys(("TransformMatrix", "elevate_coefficient_vector", "elevation_weights",
                     "transform_matrix"), "xform"),
}

__all__ = list(_HOMES)


def _exports(module: str) -> list[str]:
    """The public names whose home is ``module`` (a module's ``__name__``), in ``__all__`` order."""
    return [name for name, home in _HOMES.items() if home == module.rpartition(".")[2]]


def __getattr__(name):
    from importlib import import_module

    if name in _HOMES.values():
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    names = {*globals(), *_HOMES, *_HOMES.values()} - {"__getattr__", "__dir__"}
    return sorted(n for n in names if not n.startswith("_") or n.startswith("__"))
