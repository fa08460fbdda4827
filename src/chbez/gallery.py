"""Bundled figure specs and their deterministic regeneration.

The package ships a set of JSON spec documents under ``figures/``; each one
is a curve, patch or volume whose control point description is known to be
exact.  :func:`run_gallery` re-describes every figure, writes an SVG or OBJ
artifact plus a copy of the spec, measures the reconstruction error against
direct evaluation of the traditional form and records everything in a
manifest.  All outputs are byte-deterministic.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from . import _exports, _lazy
from ._record import record
from .curve import _projected
from .errors import RangeError
from .exact import _describe, _lattice
from .io import SpecDocument, SvgPath, export_obj, export_svg, parse_document
from .surface import _sampled

np = _lazy.Numpy(globals())

__all__ = _exports(__name__) + ["RenderedFigure"]  # not public at top level

# Samples per direction, by the number of directions.
_SAMPLES = {1: 400, 2: 33, 3: 17}

# Figures whose artifact overlays the control polygons of several orders,
# lowest to highest; all remaining figures use the minimum order.
_OVERLAY_ORDERS = {
    "equilateral_hyperbola": ((1,), (2,), (3,)),
    "lemniscate": ((2,), (3,), (4,)),
}

_FIGURES = (
    "hypocycloid",
    "quadrifolium",
    "torus_knot",
    "lemniscate",
    "equilateral_hyperbola",
    "rational_hyperbolic_arc_a",
    "rational_hyperbolic_arc_b",
    "torus_patch",
    "star_surface",
    "trigonometric_volume_1",
    "trigonometric_volume_2",
    "rational_trigonometric_patch",
    "hyperboloidal_patch",
    "rational_hyperbolic_butterfly",
    "hybrid_rational_volume",
)


def figure_names() -> tuple[str, ...]:
    """Names of all bundled figures, in gallery order."""
    return _FIGURES


def load_figure_text(name: str) -> str:
    """Raw JSON text of a bundled figure spec."""
    if name not in _FIGURES:
        raise RangeError(f"unknown figure {name!r}")
    return resources.files("chbez").joinpath("figures", f"{name}.json").read_text()


def load_figure(name: str) -> SpecDocument:
    """Parsed document of a bundled figure spec."""
    return parse_document(load_figure_text(name))


def reconstruction_error(recon, direct) -> float:
    """Max over samples of the scaled deviation between two point sets.

    Per sample the deviation is ``|recon - direct|_inf / (1 + |direct|_inf)``,
    so the number reads as an absolute error for small geometry and a
    relative one for large.
    """
    recon = np.asarray(recon, dtype=float)
    direct = np.asarray(direct, dtype=float)
    if recon.shape != direct.shape:
        raise RangeError(f"shape mismatch: {recon.shape} vs {direct.shape}")
    diff = np.abs(recon - direct).max(axis=-1)
    scale = 1.0 + np.abs(direct).max(axis=-1)
    return float((diff / scale).max())


@record
class RenderedFigure:
    """One regenerated figure: artifact text plus its error report."""

    name: str
    suffix: str
    artifact: str
    error: float


def render_figure(name: str) -> RenderedFigure:
    """Regenerate one bundled figure and measure its reconstruction error.

    A planar curve gives an SVG with its control polygons, anything else an
    OBJ of its samples (a patch's reconstructed ones) and control net.
    """
    return _rendered(name, load_figure_text(name))


def _rendered(name: str, text: str) -> RenderedFigure:
    """:func:`render_figure` of the figure ``name`` whose spec text is ``text``."""
    doc = parse_document(text)
    spec = doc.spec
    directions = spec._directions
    overlay = _OVERLAY_ORDERS.get(name, (None,))
    nets = [_describe(spec, orders, rational=doc.rational)[0] for orders in overlay]
    sampled = [_sampled(net, spec, _SAMPLES[len(directions)]) for net in nets]
    axes = sampled[0][0]
    direct = _lattice(spec._products, directions, axes)
    if doc.rational:
        direct = _projected(direct)[0]
    error = max(reconstruction_error(values, direct) for _, values in sampled)
    curve = len(directions) == 1
    if curve and direct.shape[1] == 2:
        labels = "abcdefgh" if len(nets) > 1 else "d"
        paths = [SvgPath(direct, "curve")]
        paths += [SvgPath(net.points, "polygon", label) for net, label in zip(nets, labels)]
        return RenderedFigure(name, "svg", export_svg(paths), error)
    samples = direct if curve else sampled[0][1]
    return RenderedFigure(name, "obj", export_obj(samples, nets[-1].points), error)


def run_gallery(out_dir) -> list[dict]:
    """Regenerate every bundled figure into ``out_dir``.

    Writes one artifact per figure, a copy of each spec under ``specs/``
    and a ``manifest.json`` listing figure name, spec path, output path and
    reconstruction error.  Returns the manifest entries.
    """
    out = Path(out_dir)
    specs = out / "specs"
    specs.mkdir(parents=True, exist_ok=True)
    entries = []
    for name in _FIGURES:
        spec_text = load_figure_text(name)
        (specs / f"{name}.json").write_text(spec_text)
        rendered = _rendered(name, spec_text)
        output = f"{name}.{rendered.suffix}"
        (out / output).write_text(rendered.artifact)
        entries.append(
            {
                "figure": name,
                "spec": f"specs/{name}.json",
                "output": output,
                "error": rendered.error,
            }
        )
    manifest = json.dumps({"figures": entries}, indent=2) + "\n"
    (out / "manifest.json").write_text(manifest)
    return entries
