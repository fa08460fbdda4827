"""The pure path: curves, transform matrices and trigonometric basis tables in Python floats.

A one-shot CLI process spends longer importing numpy (about 70 ms) than
``xform``, a trigonometric ``basis`` table of the sizes the CLI builds here,
or ``describe``, ``describe-rational``, ``elevate`` and ``subdivide`` of a
curve, take to compute.  ``chbez.cli`` runs ``xform`` here, builds
trigonometric ``basis`` tables of up to ``cli._PURE_BASIS_CELLS`` cells
here, and describes, elevates and splits every curve here, in every format
and for every command; svg and obj output and ``sample`` then load numpy
only to draw or to sample the polygon.  Each function repeats its numpy
twin, named in its docstring, operation for operation and in the same
order.  Every step is a ``math`` function or one IEEE multiply, add or
divide, which Python floats round as numpy does, so both paths give the
same bits (``np.sin`` equals ``math.sin`` bit for bit; ``np.sinh`` differs
from ``math.sinh`` on some CPUs, so hyperbolic tables stay on numpy); sums
are left folds, never ``sum``, which compensates from Python 3.12 on.
Arrays become lists: a vector a list of floats, a matrix a list of rows.
The writers print the bytes of ``io.export_table`` and ``json.dumps``.
``tests/test_pure.py`` and ``tools/pure_sweep.py`` compare the CLI's bytes
with bytes built from the public library.

A rational curve is elevated until its pre-image weights are positive,
which proves its denominator positive; the elevation, the projection and the
weight column repeat the numpy path bit for bit.  Only a rational curve whose
description fails loads numpy: its denominator is then sampled through
numpy's sin, cos, sinh and cosh, so that a dip at a sample names the failure
(``exact._denominator_named``).
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from functools import reduce
from itertools import chain
from operator import add

from .bbasis import (_ADDITION_SIGNS, _FUNCTIONS, BasisSpace, _half_functions, _shares,
                     _top_order)
from .errors import NumericalError, RangeError
from .io import _csv_header


# A control curve: its space, its control points (a list per point) and its weights (None: plain).
Polygon = namedtuple("Polygon", "space points weights", defaults=[None])


def _sums_by_order(space: BasisSpace, orders) -> list:
    """``bbasis._sums_by_order``, adding each entry's nonzero terms in increasing r onto 0.0.

    The terms are nonnegative, so the zero terms numpy also adds change no bit.
    """
    two_c = 2.0 * _half_functions(space)[1]
    powers = [two_c**k for k in range(space.dimension)]
    sums = []
    for m in orders:
        terms = [[math.comb(m, i - r) * math.comb(i - r, r) * powers[i - 2 * r]
                  for r in range(max(0, i - m), i // 2 + 1)] for i in range(2 * m + 1)]
        sums.append([reduce(add, t, 0.0) for t in terms] + [1.0] * (space.dimension - 2 * m - 1))
    return sums


def _step_table(space: BasisSpace, low: int) -> list:
    """``xform._step_table`` without its padding: step m has rows of 2m + 1 weights."""
    sums = _sums_by_order(space, [1, *range(low, space.n + 1)])
    return [[[(s[r] * sums[0][j]) / t[j + r] for r in range(2 * m + 1)] for j in range(3)]
            for m, s, t in zip(range(low, space.n), sums[1:], sums[2:])]


def _raise_order(weights: list, row: list, factor=(1.0, 1.0, 1.0)) -> list:
    """``xform._raise_order`` of one row, whose factor ``factor[j]`` multiplies ``weights[j]``.

    A factor of 1.0 changes no weight: it stands for a row without a factor.
    """
    terms = [[0.0] * j + [w * f * x for w, x in zip(wj, row)] + [0.0] * (2 - j)
             for j, (wj, f) in enumerate(zip(weights, factor))]
    return [0.0 + a + b + c for a, b, c in zip(*terms)]


def transform_rows(space: BasisSpace) -> list:
    """``xform._transform_rows``, built afresh: a one-shot process builds a space's rows once.

    The rows are built as there: the known rows, then four product inputs with their factors.
    """
    s, c, t = _FUNCTIONS[space.kind]
    sine, cosine = [0.0, t(0.5 * space.alpha), s(space.alpha)], [1.0, 1.0, c(space.alpha)]
    factors = [cosine, sine, [x * _ADDITION_SIGNS[space.kind] for x in sine], cosine]
    rows = [sine, cosine] * 3
    for m, weights in enumerate(_step_table(space, 1), start=1):
        rows = [_raise_order(weights, row, f)
                for row, f in zip(rows, [(1.0, 1.0, 1.0)] * (2 * m) + factors)]
        rows = rows[: 2 * m] + [[a + b for a, b in zip(*rows[i : i + 2])]
                                for i in (2 * m, 2 * m + 2)] * 3
    return [[1.0] * space.dimension] + rows[: space.degree]


def _ordinates(fn, space: BasisSpace, r: int, rows: list) -> list:
    """``exact.coordinate_ordinates`` of a coordinate whose frequencies fit the space.

    ``rows`` are the space's :func:`transform_rows`, which the caller builds once per curve.
    """
    from .exact import _term_rows

    out = [0.0] * space.dimension
    for scale, a, x, b, y in _term_rows(fn, space, r, rows, [0.0] * len(out)):
        out = [o + scale * (a * xi + b * yi) for o, xi, yi in zip(out, x, y)]
    return out


def _finite_channels(channels: list) -> list:
    """``exact._finite_channels``: ``channels``, or a range error naming the first not finite."""
    for ell, channel in enumerate(channels):
        if not all(map(math.isfinite, channel)):
            raise RangeError(f"coords[{ell}]: control points overflow double precision")
    return channels


def _projected(channels: list) -> tuple:
    """``curve._projected``: the numerator channels divided by the weights (the last), and those."""
    w = channels[-1]
    return [[x / wi for x, wi in zip(c, w)] for c in channels[:-1]], w


def _net(space: BasisSpace, channels: list, weights=None) -> Polygon:
    """``ControlCurve(space, points, weights)`` of the points in ``channels``, and its refusals.

    The weights, if any, are positive: the callers checked that.
    """
    if not all(math.isfinite(x) for c in channels for x in c):
        raise RangeError("control points must be finite")
    if weights and not all(map(math.isfinite, weights)):
        raise RangeError("weights must be finite, nonnegative and not all zero")
    return Polygon(space, [list(p) for p in zip(*channels)], weights)


def _positive(channels: list, space: BasisSpace, max_elevations: int) -> tuple:
    """``exact._elevate_until_positive`` of a curve's pre-image channels, the weights last."""
    from .exact import WEIGHT_POSITIVITY

    steps, top = 0, _top_order(space.kind, space.alpha)
    while True:
        w = channels[-1]
        # numpy's max is nan if a weight is, and min(1.0, nan) is 1.0.
        scale = min(1.0, max(map(abs, w))) if all(x == x for x in w) else 1.0
        bad = [i for i, x in enumerate(w) if x <= WEIGHT_POSITIVITY * scale]
        if not bad or steps >= max_elevations or space.n >= top:
            break
        space = BasisSpace(space.kind, space.n + 1, space.alpha)
        (weights,) = _step_table(space, space.n - 1)
        channels = [_raise_order(weights, c) for c in channels]
        steps += 1
    if bad:
        raise NumericalError(f"weights not positive after {steps} elevation(s)", indices=bad)
    return channels, space


def describe(spec, orders, r, rational: bool, max_elevations: int) -> Polygon:
    """``exact._describe`` of a curve spec at checked flags (None: minimum, underived).

    It follows the rule of ``exact._denominator_named``: a rational spec whose
    description fails has its denominator sampled, through numpy, to name a dip.
    """
    from .exact import _denominator_named

    return _denominator_named(_polygon)(spec, orders, r, rational, max_elevations)


def _polygon(spec, orders, r, rational: bool, max_elevations: int) -> Polygon:
    """:func:`describe` of a spec whose denominator, if any, is left to the caller."""
    from .exact import _check_orders

    space = spec.space(_check_orders(spec, orders)[0])
    rows, derivative = transform_rows(space), (r or (0,))[0]
    # Ordinates sum onto 0.0, so none is -0.0 and the 0.0 + that numpy adds changes no bit.
    channels = _finite_channels([_ordinates(fn, space, derivative, rows) for fn in spec.coords])
    if not rational:
        return _net(space, channels)
    channels, space = _positive(channels, space, max_elevations)
    numerators, weights = _projected(channels)
    return _net(space, _finite_channels(numerators), weights)


def elevate(curve: Polygon, z: int) -> Polygon:
    """``curve.elevate`` of a polygon by a positive count whose target order the caller checked.

    The steps are those of ``xform._elevated`` along each channel, a rational
    curve's along the channels of its pre-image ``(w p, w)``.
    """
    top = BasisSpace(curve.space.kind, curve.space.n + z, curve.space.alpha)
    w = curve.weights
    channels = [list(c) for c in zip(*curve.points)]
    if w:
        channels = [[wi * x for wi, x in zip(w, c)] for c in channels] + [w]
    for weights in _step_table(top, curve.space.n):
        channels = [_raise_order(weights, c) for c in channels]
    if w and not all(x > 0.0 for x in channels[-1]):
        raise NumericalError("degenerate weight after elevation")
    return _net(top, *_projected(channels)) if w else _net(top, channels)


def subdivide(curve: Polygon, u0: float) -> dict:
    """``curve.subdivide`` of a polygon at a checked ``u0``, as the CLI's JSON payload."""
    space = curve.space
    stay, v = _shares(space, u0)
    sums = _sums_by_order(space, [space.n])[0]
    cs = [s / float(math.comb(space.degree, i)) for i, s in enumerate(sums)]
    if curve.weights:
        cs = [c * w for c, w in zip(cs, curve.weights)]
    level = [[c * x for x in p] + [c] for c, p in zip(cs, curve.points)]
    levels = [level]
    while len(level) > 1:
        level = [[stay * x + v * y for x, y in zip(p, q)] for p, q in zip(level, level[1:])]
        levels.append(level)
    left, right = [lv[0] for lv in levels], [lv[-1] for lv in levels]
    if not all(p[-1] > 0.0 for p in left + right):
        raise NumericalError(f"degenerate weight pyramid while splitting at u0 = {u0:g}")

    def piece(edge, interval):
        return {"interval": interval, "points": [[x / p[-1] for x in p[:-1]] for p in edge],
                "weights": [p[-1] for p in edge]}

    pieces = piece(left, [0.0, u0]), piece(right[::-1], [u0, space.alpha])
    if not all(math.isfinite(x) for pc in pieces for x in chain(pc["weights"], *pc["points"])):
        raise NumericalError(f"pieces overflow double precision while splitting at u0 = {u0:g}")
    return {"split_ratio": v, "left": pieces[0], "right": pieces[1]}


def _ladder(x: float, degree: int) -> list:
    """``bbasis._ladder``: ``x**k`` for k = 0 .. degree, ``P[k] = P[h] * P[k - h]``."""
    powers = [1.0, x]
    for k in range(2, degree + 1):
        h = 1 << (k - 1).bit_length() - 1
        powers.append(powers[h] * powers[k - h])
    return powers


def basis_table(space: BasisSpace, samples: int) -> list:
    """``basis_matrix`` of a trigonometric space on ``np.linspace(0, alpha, samples)``.

    Each row leads with its parameter, as the CLI's ``basis`` table does.
    """
    alpha, degree = space.alpha, space.degree
    scale = math.sin(0.5 * alpha)
    if not scale >= sys.float_info.min:
        raise RangeError(f"alpha = {alpha!r} too small: sin(alpha/2) is not a normal double")
    step, weights = alpha / (samples - 1), _sums_by_order(space, [space.n])[0]
    rows = []
    for u in [i * step for i in range(samples - 1)] + [alpha]:
        lefts = _ladder(math.sin(0.5 * (alpha - u)) / scale, degree)[::-1]
        rights = _ladder(math.sin(0.5 * u) / scale, degree)
        rows.append([u, *[w * (r * x) for w, r, x in zip(weights, rights, lefts)]])
    return rows


def table(rows: list, fmt: str, columns=None) -> str:
    """``io.export_table`` of rows of floats, as csv (``repr`` per cell) or json."""
    if fmt == "json":
        payload = {"data": rows} if columns is None else {"data": rows, "columns": columns}
        return json.dumps(payload, indent=2) + "\n"
    header = "" if columns is None else _csv_header(columns)
    return header + "".join(",".join(map(repr, row)) + "\n" for row in rows)
