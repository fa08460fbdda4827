"""Output checks, run outside the timed interval on every job.

Reconstruction is compared against direct evaluation of the traditional
form.  The tolerance is not one fixed bound: it follows the condition of
the problem.  For coefficients ``d_i`` the Bernstein-form condition
estimate of the ROADMAP is ``kappa = max_u sum_i |d_i| b_i(u) / max|f|``
(Farouki & Rajan, CAGD 4, 1987); evaluating ``sum_i d_i b_i(u)`` in
floating point can be off by about ``m * eps * sum_i |d_i| b_i(u)`` with
``m`` the number of basis functions.  The coefficients are themselves
computed, as sums of scaled transform-matrix rows that can cancel (for
example ``cosh(2u - 10)`` over a hyperbolic space), so the bound uses the
running-error form of the same sums, ``D_i``: the ordinates computed with
the absolute values of every term (``D_i >= |d_i|``, equal when nothing
cancels).  The pointwise bound is

    c * eps * m * (A(u) + |f(u)| A_w(u)) / W(u)

with ``A(u) = sum_i D_i b_i(u)`` over the (homogeneous) numerators,
``A_w`` the same for the denominator and ``W(u) = sum_i w_i b_i(u)``
(``A_w = 0`` and ``W = 1`` for polynomial geometry, where the bound is
``c * eps * m * kappa(u) * max|f|`` up to the cancellation term).  Direct
evaluation of ``a f(k u + phase)`` adds about ``eps |a| g(x) (1 + |x|)``
per term (``g = 1`` for sin/cos, ``cosh`` for sinh/cosh,
``x = k u + phase``), the argument rounding being the larger part.
``TOL_FACTOR`` is the constant ``c``.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

from chbez import (
    BasisKind,
    BasisSpace,
    ControlGrid,
    CoordinateFunction,
    TermFamily,
    basis_matrix,
    elevate_coefficient_vector,
    parse_table,
    reparametrize,
    sample_lattice,
    transform_matrix,
)

EPS = float(np.finfo(float).eps)
TOL_FACTOR = 4.0
CSV_CHUNK_ROWS = 4096
MESH_CHECK_POINTS = 48
GALLERY_MAX_ERROR = 1e-8


class CheckFailure(Exception):
    """A job's output did not pass its check."""


class Refused(Exception):
    """The program declined the job with one of its documented errors."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


class Worst:
    """Largest observed error-to-bound ratio and condition estimate of a run."""

    def __init__(self):
        self.ratio = 0.0
        self.kappa = 0.0

    def compare(self, got, want, bound, what: str):
        """Pointwise ``|got - want| <= bound`` (rows are samples)."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
        require(bool(np.all(np.isfinite(got))), f"{what}: non-finite values")
        err = np.abs(got - want).reshape(len(got), -1).max(axis=1)
        ratio = float((err / bound).max())
        self.ratio = max(self.ratio, ratio)
        require(ratio <= 1.0, f"{what}: error {err.max():.3e} exceeds bound (ratio {ratio:.2f})")

    def note_kappa(self, curve, basis):
        """Farouki-Rajan condition estimate of a polynomial control curve."""
        if curve.weights is not None:
            return
        scale = float(np.abs(basis @ curve.points).max())
        if scale > 0.0:
            self.kappa = max(self.kappa, float((basis @ np.abs(curve.points)).max()) / scale)


class Bases:
    """Basis matrices of one job's check, computed once per space and grid."""

    def __init__(self):
        self._cache = {}

    def __call__(self, space: BasisSpace, us) -> np.ndarray:
        key = (space, id(us))
        if key not in self._cache:
            self._cache[key] = (us, basis_matrix(space, us))
        return self._cache[key][1]


def curve_values(curve, basis) -> np.ndarray:
    """Reference evaluation of a control curve from a precomputed basis matrix."""
    if curve.weights is None:
        return basis @ curve.points
    return (basis @ (curve.weights[:, None] * curve.points)) / (basis @ curve.weights)[:, None]


def abs_ordinates(fn: CoordinateFunction, space: BasisSpace, r: int = 0) -> np.ndarray:
    """Running-error ordinates ``D``: the B-basis ordinates of ``fn`` (or of
    its r-th derivative) summed with the absolute value of every term."""
    matrix = transform_matrix(space)
    out = np.zeros(space.dimension)
    trig = space.kind is BasisKind.TRIGONOMETRIC
    for t in fn.terms:
        scale = abs(t.amplitude) * float(t.frequency ** r)
        sine = np.abs(matrix.sine_row(t.frequency))
        cosine = np.abs(matrix.cosine_row(t.frequency))
        if trig:
            shifted = t.phase + 0.5 * math.pi * r
            c, s = abs(math.cos(shifted)), abs(math.sin(shifted))
            own, other = (cosine, sine) if t.family is TermFamily.COSINE else (sine, cosine)
        else:
            c, s = abs(math.cosh(t.phase)), abs(math.sinh(t.phase))
            cosine_like = (t.family is TermFamily.COSINE) != (r % 2 == 1)
            own, other = (cosine, sine) if cosine_like else (sine, cosine)
        out += scale * (c * own + s * other)
    return out


def _term_magnitudes(fn: CoordinateFunction, kind: BasisKind, us) -> np.ndarray:
    """Per-sample error scale of direct evaluation: sum |a| g(x) (1 + |x|)."""
    us = np.asarray(us, dtype=float)
    out = np.zeros_like(us)
    for t in fn.terms:
        x = t.frequency * us + t.phase
        g = 1.0 if kind is BasisKind.TRIGONOMETRIC else np.cosh(x)
        out += abs(t.amplitude) * g * (1.0 + np.abs(x))
    return out


def direct_curve(coords, kind: BasisKind, us, rational: bool):
    """Direct values (projected if rational) and their pointwise error bound."""
    values = np.column_stack([fn.values(kind, us) for fn in coords])
    mags = np.column_stack([_term_magnitudes(fn, kind, us) for fn in coords])
    if not rational:
        return values, TOL_FACTOR * EPS * mags.max(axis=1)
    den = values[:, -1]
    projected = values[:, :-1] / den[:, None]
    num_err = mags[:, :-1].max(axis=1) + np.abs(projected).max(axis=1) * mags[:, -1]
    return projected, TOL_FACTOR * EPS * num_err / np.abs(den)


def curve_abs(coords, space: BasisSpace, rational: bool, r: int = 0):
    """Running-error ordinates of the numerators (max over coordinates) and
    of the denominator (``None`` for polynomial curves)."""
    numerators = coords[:-1] if rational else coords
    num = np.max([abs_ordinates(fn, space, r) for fn in numerators], axis=0)
    return num, abs_ordinates(coords[-1], space, r) if rational else None


def control_bound(curve, basis, num_abs, den_abs=None) -> np.ndarray:
    """Pointwise error bound for evaluating ``curve`` where ``basis`` was sampled."""
    m = curve.space.dimension
    if curve.weights is None:
        return TOL_FACTOR * EPS * m * (basis @ num_abs)
    w_sum = basis @ curve.weights
    values = curve_values(curve, basis)
    spread = basis @ num_abs + np.abs(values).max(axis=1) * (basis @ den_abs)
    return TOL_FACTOR * EPS * m * spread / w_sum


def _piece_bound(piece, us) -> np.ndarray:
    """Pointwise error bound for ``piece.evaluate(us)`` (rational Bezier form)."""
    space = piece.parent_space
    lo, hi = piece.u_interval
    v_lo, v_hi = reparametrize(space, lo), reparametrize(space, hi)
    s = np.array([(reparametrize(space, min(max(u, lo), hi)) - v_lo) / (v_hi - v_lo) for u in us])
    s = np.clip(s, 0.0, 1.0)
    degree = piece.points.shape[0] - 1
    i = np.arange(degree + 1)
    binom = np.array([math.comb(degree, k) for k in i], dtype=float)
    bern = binom * s[:, None] ** i * (1.0 - s[:, None]) ** (degree - i)
    w_sum = bern @ piece.weights
    abs_sum = bern @ (piece.weights * np.abs(piece.points).max(axis=1))
    values = (bern @ (piece.weights[:, None] * piece.points)) / w_sum[:, None]
    m = degree + 1
    return TOL_FACTOR * EPS * m * (abs_sum + np.abs(values).max(axis=1) * w_sum) / w_sum


def check_curve_job(spec, rational: bool, out: dict, worst: Worst):
    """All curve_kernel outputs against the traditional form and each other."""
    bases = Bases()
    curve = out["curve"]
    us = out["us"]
    basis = bases(curve.space, us)
    num_abs, den_abs = curve_abs(spec.coords, curve.space, rational)
    parent_bound = control_bound(curve, basis, num_abs, den_abs)
    worst.note_kappa(curve, basis)
    direct, direct_err = direct_curve(spec.coords, spec.kind, us, rational)
    worst.compare(out["values"], direct, parent_bound + direct_err, "reconstruction")

    deriv = out["derivative"]
    d_basis = bases(deriv.space, us)
    d_abs, _ = curve_abs(spec.coords, deriv.space, False, 1)
    d_direct, d_err = direct_curve(spec.differentiated().coords, spec.kind, us, False)
    worst.compare(curve_values(deriv, d_basis), d_direct, control_bound(deriv, d_basis, d_abs) + d_err,
                  "derivative")

    table = out["basis"]
    require(bool(np.all(table >= 0.0)), "basis: negative basis value")
    m = table.shape[1]
    worst.compare(table.sum(axis=1)[:, None], np.ones((len(table), 1)),
                  np.full(len(table), TOL_FACTOR * EPS * m), "basis partition of unity")

    elevated = out["elevated"]
    require(elevated.space.n == curve.space.n + out["elevate_by"], "elevate: wrong order")
    lifted = np.column_stack([num_abs] + ([den_abs] if rational else []))
    for step in range(out["elevate_by"]):
        lifted = elevate_coefficient_vector(BasisSpace(spec.kind, curve.space.n + step, spec.alpha), lifted)
    e_basis = bases(elevated.space, us)
    e_bound = control_bound(elevated, e_basis, lifted[:, 0], lifted[:, 1] if rational else None)
    worst.compare(curve_values(elevated, e_basis), out["values"], e_bound + parent_bound,
                  "elevated curve vs parent")

    for piece, piece_us, piece_values in out["pieces"]:
        p_basis = bases(curve.space, piece_us)
        worst.compare(piece_values, curve_values(curve, p_basis),
                      _piece_bound(piece, piece_us) + control_bound(curve, p_basis, num_abs, den_abs),
                      "subdivision piece vs parent")


# ---------------------------------------------------------------------------
# mesh_export


def obj_counts(shape, net_shape) -> tuple[int, int, int]:
    """Expected vertex, face and line record counts of ``export_obj``."""
    dims = shape[:-1]
    net = net_shape[:-1]
    vertices = math.prod(dims) + math.prod(net)
    if len(dims) == 2:
        faces = (dims[0] - 1) * (dims[1] - 1)
    else:
        faces = 2 * sum((dims[a] - 1) * (dims[b] - 1) for a, b in ((0, 1), (0, 2), (1, 2)))
    lines = sum((net[a] - 1) * math.prod(net) // net[a] for a in range(len(net)))
    return vertices, faces, lines


def check_obj(text: str, shape, net_shape):
    vertices, faces, lines = obj_counts(shape, net_shape)
    require(text.startswith("g samples\n") and text.endswith("\n"), "obj: truncated text")
    got = (text.count("\nv "), text.count("\nf "), text.count("\nl "))
    require(got == (vertices, faces, lines),
            f"obj: vertices/faces/lines {got} != {(vertices, faces, lines)}")


def check_csv(text: str, data: np.ndarray, columns):
    """Chunked round trip through ``parse_table``; values must be bit identical.

    Chunks are sliced from the text in place, so the check never holds a
    second copy of the whole table (peak RSS should reflect the job, not its
    check).
    """
    start = text.find("\n") + 1
    header = text[:start]
    require(header.rstrip("\n").split(",") == list(columns), "csv: header mismatch")
    row = 0
    while start < len(text):
        end = start
        for _ in range(CSV_CHUNK_ROWS):
            end = text.find("\n", end) + 1
            if end == 0:
                end = len(text)
                break
            if end == len(text):
                break
        parsed, cols = parse_table(header + text[start:end], "csv")
        require(cols == list(columns), "csv: header lost in round trip")
        want = data[row:row + len(parsed)]
        require(parsed.shape == want.shape and np.array_equal(parsed, want),
                f"csv: rows {row}..{row + len(parsed)} do not round-trip")
        row += len(parsed)
        start = end
    require(row == len(data), f"csv: {row} rows, expected {len(data)}")


def _surface_direct(spec, point):
    """Direct values (projected if rational) and error bound at one parameter vector."""
    values = spec.evaluate(point)
    mags = np.zeros(spec.channels)
    for ell, coord in enumerate(spec.coords):
        for summand in coord.summands:
            prod = 1.0
            for j, factor in enumerate(summand.factors):
                prod *= _term_magnitudes(factor, spec.directions[j].kind, [point[j]])[0]
            mags[ell] += prod
    if not spec.is_rational:
        return values, TOL_FACTOR * EPS * spec.delta * mags.max()
    projected = values[:-1] / values[-1]
    err = mags[:-1].max() + np.abs(projected).max() * mags[-1]
    return projected, TOL_FACTOR * EPS * spec.delta * err / abs(values[-1])


def _abs_grid(coord, spaces) -> np.ndarray:
    """Running-error ordinates of one surface coordinate at the given spaces."""
    return sum(
        reduce(np.multiply.outer, [abs_ordinates(f, spaces[j]) for j, f in enumerate(summand.factors)])
        for summand in coord.summands
    )


def check_lattice(spec, grid: ControlGrid, lattice: np.ndarray, rng: np.random.Generator, worst: Worst):
    """Lattice samples at seeded lattice points against direct evaluation."""
    counts = lattice.shape[:-1]
    spaces = [d.space(n) for d, n in zip(spec.directions, grid.orders)]

    def smooth(coefficients):
        return sample_lattice(ControlGrid(grid.orders, coefficients[..., None]), spec.directions, counts)[..., 0]

    numerators = spec.coords[:-1] if spec.is_rational else spec.coords
    num_abs = smooth(np.max([_abs_grid(c, spaces) for c in numerators], axis=0))
    if grid.weights is None:
        den_abs, w_sum = np.zeros(counts), np.ones(counts)
    else:
        den_abs, w_sum = smooth(_abs_grid(spec.coords[-1], spaces)), smooth(grid.weights)
    m = sum(2 * n + 1 for n in grid.orders)
    axes = [np.linspace(0.0, d.alpha, c) for d, c in zip(spec.directions, counts)]
    picks = [tuple(int(rng.integers(0, c)) for c in counts) for _ in range(MESH_CHECK_POINTS)]
    got, want, bound = [], [], []
    for idx in picks:
        point = np.array([axes[j][i] for j, i in enumerate(idx)])
        direct, direct_err = _surface_direct(spec, point)
        value = lattice[idx]
        spread = (num_abs[idx] + np.abs(value).max() * den_abs[idx]) / w_sum[idx]
        got.append(value)
        want.append(direct)
        bound.append(TOL_FACTOR * EPS * m * spread + direct_err)
    worst.compare(np.array(got), np.array(want), np.array(bound), "lattice reconstruction")


# ---------------------------------------------------------------------------
# cli_oneshot


def check_cli_output(fmt: str, text: str, expected: str):
    """CLI stdout must equal the in-process result and parse back."""
    require(text == expected, f"cli: stdout differs from chbez.cli.main ({len(text)} vs {len(expected)} bytes)")
    if fmt == "csv":
        data, _ = parse_table(text, "csv")
        require(data.size > 0 and bool(np.all(np.isfinite(data))), "cli: empty or non-finite table")
    else:
        payload = json.loads(text)
        require(bool(payload), "cli: empty json")


def check_gallery(out_dir: Path, reference: dict[str, bytes]):
    """Gallery output must match an in-process run file for file."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    entries = manifest["figures"]
    require(2 * len(entries) + 1 == len(reference), "gallery: wrong figure count")
    require(max(e["error"] for e in entries) <= GALLERY_MAX_ERROR, "gallery: reconstruction error above 1e-8")
    for rel, content in reference.items():
        path = out_dir / rel
        require(path.is_file() and path.read_bytes() == content, f"gallery: {rel} differs")
