"""The package's immutable records behave like frozen dataclasses.

Each class below is a verbatim ``@dataclass(frozen=True)`` copy of one
record of the package: its fields, defaults and ``__post_init__``.  Methods
and properties that play no part in construction, comparison or hashing are
left out.  Every case constructs the package record and its copy from the
same arguments and requires the same outcome: the same ``repr``, the same
equality and hash, the same error on bad arguments, and ``AttributeError``
with the same text on assignment and deletion.
"""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from chbez import _record, bbasis, curve, exact, gallery, io, surface, xform
from chbez.bbasis import MAX_DEGREE, BasisKind, _is_count
from chbez.errors import RangeError
from chbez.exact import TermFamily
from chbez.surface import MAX_DIRECTIONS

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
_OVERFLOW_LIMIT = bbasis._OVERFLOW_LIMIT


# ---------------------------------------------------------------------------
# Verbatim dataclass copies


# A verbatim copy of the package's former ``curve._store_net``, which the
# ``ControlCurve`` and ``ControlGrid`` copies below call; kept here so that
# these oracles do not share code with the package they check.
def _store_net(net, points: np.ndarray, dims: tuple, shape_error: str) -> None:
    """Check a control net's points and weights and store read-only copies.

    Weights whose shape is not ``dims`` raise ``shape_error.format(shape)``.
    """
    if not np.all(np.isfinite(points)):
        raise RangeError("control points must be finite")
    object.__setattr__(net, "points", points.copy())
    net.points.flags.writeable = False
    if net.weights is not None:
        w = np.asarray(net.weights, dtype=float)
        if w.shape != dims:
            raise RangeError(shape_error.format(w.shape))
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or not np.any(w > 0.0):
            raise RangeError("weights must be finite, nonnegative and not all zero")
        object.__setattr__(net, "weights", w.copy())
        net.weights.flags.writeable = False


@dataclass(frozen=True)
class BasisSpace:
    kind: BasisKind
    n: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise RangeError(f"order n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise RangeError(f"order n must be >= 1, got {self.n}")
        if 2 * self.n > MAX_DEGREE:
            raise RangeError(
                f"degree 2n = {2 * self.n} exceeds the supported cap {MAX_DEGREE}"
            )
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise RangeError(f"alpha must be positive and finite, got {alpha!r}")
        if self.kind is BasisKind.TRIGONOMETRIC:
            if alpha >= math.pi:
                raise RangeError(
                    f"trigonometric alpha must lie in (0, pi), got {alpha!r}"
                )
        else:
            if self.n * alpha > _OVERFLOW_LIMIT:
                raise RangeError(
                    f"hyperbolic n*alpha = {self.n * alpha:g} exceeds the "
                    f"overflow guard {_OVERFLOW_LIMIT:g}"
                )


@dataclass(frozen=True)
class NormalizingCoefficients:
    space: BasisSpace
    values: np.ndarray


@dataclass(frozen=True)
class TransformMatrix:
    space: BasisSpace
    rows: np.ndarray


@dataclass(frozen=True)
class ControlCurve:
    space: BasisSpace
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise RangeError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] != self.space.dimension:
            raise RangeError(
                f"expected {self.space.dimension} control points, got {pts.shape[0]}"
            )
        if pts.shape[1] < 1:
            raise RangeError("control points need at least one coordinate")
        dims = (self.space.dimension,)
        _store_net(self, pts, dims, f"expected {dims[0]} weights, got shape {{}}")


@dataclass(frozen=True)
class BezierPiece:
    parent_space: BasisSpace
    points: np.ndarray
    weights: np.ndarray
    u_interval: tuple[float, float]


@dataclass(frozen=True)
class SubdivisionResult:
    left: BezierPiece
    right: BezierPiece
    split_ratio: float


@dataclass(frozen=True)
class Term:
    family: TermFamily
    frequency: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not isinstance(self.family, TermFamily):
            raise RangeError(f"family must be a TermFamily, got {self.family!r}")
        if not _is_count(self.frequency):
            raise RangeError(
                f"frequency must be a nonnegative integer, got {self.frequency!r}"
            )
        object.__setattr__(self, "frequency", int(self.frequency))
        for name in ("amplitude", "phase"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise RangeError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CoordinateFunction:
    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class CurveSpec:
    kind: BasisKind
    alpha: float
    coords: tuple[CoordinateFunction, ...]

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {self.kind!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) == 0:
            raise RangeError("curve spec needs at least one coordinate")
        # Constructing a space validates the alpha range for the kind.
        BasisSpace(self.kind, 1, self.alpha)


@dataclass(frozen=True)
class PreImageResult:
    preimage: ControlCurve
    curve: ControlCurve
    elevations: int


@dataclass(frozen=True)
class Direction:
    kind: BasisKind
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        BasisSpace(self.kind, 1, self.alpha)


@dataclass(frozen=True)
class ProductTerm:
    factors: tuple[CoordinateFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class SurfaceCoordinateFunction:
    summands: tuple[ProductTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if len(self.summands) == 0:
            raise RangeError("surface coordinate needs at least one summand")


@dataclass(frozen=True)
class SurfaceSpec:
    directions: tuple[Direction, ...]
    kappa: int
    coords: tuple[SurfaceCoordinateFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "coords", tuple(self.coords))
        delta = len(self.directions)
        if not 2 <= delta <= MAX_DIRECTIONS:
            raise RangeError(f"number of directions must be 2..{MAX_DIRECTIONS}, got {delta}")
        # The package refuses a bool kappa since this copy was taken; so does the copy.
        if not _is_count(self.kappa):
            raise RangeError(f"kappa must be a nonnegative integer, got {self.kappa!r}")
        object.__setattr__(self, "kappa", int(self.kappa))
        expected = delta + self.kappa
        if len(self.coords) not in (expected, expected + 1):
            raise RangeError(
                f"expected {expected} coordinates ({expected + 1} if rational), "
                f"got {len(self.coords)}"
            )
        for ell, coord in enumerate(self.coords):
            for zeta, summand in enumerate(coord.summands):
                if len(summand.factors) != delta:
                    raise RangeError(
                        f"coords[{ell}].summands[{zeta}] has {len(summand.factors)} "
                        f"factors, expected {delta}"
                    )


@dataclass(frozen=True)
class ControlGrid:
    orders: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        pts = np.asarray(self.points, dtype=float)
        dims = tuple(2 * n + 1 for n in self.orders)
        if pts.shape[:-1] != dims:
            raise RangeError(f"points shape {pts.shape} does not match orders {self.orders}")
        _store_net(self, pts, dims, f"weights shape {{}} does not match orders {self.orders}")


@dataclass(frozen=True)
class SpecDocument:
    version: int
    spec: CurveSpec | SurfaceSpec
    rational: bool


@dataclass(frozen=True)
class SvgPath:
    points: np.ndarray
    role: str = "curve"
    label: str = "d"


@dataclass(frozen=True)
class RenderedFigure:
    name: str
    suffix: str
    artifact: str
    error: float


# ---------------------------------------------------------------------------
# Cases: record name -> list of (args, kwargs) built from package values

PACKAGE = {
    cls.__name__: cls
    for cls in (
        bbasis.BasisSpace,
        bbasis.NormalizingCoefficients,
        xform.TransformMatrix,
        curve.ControlCurve,
        curve.BezierPiece,
        curve.SubdivisionResult,
        exact.Term,
        exact.CoordinateFunction,
        exact.CurveSpec,
        exact.PreImageResult,
        surface.Direction,
        surface.ProductTerm,
        surface.SurfaceCoordinateFunction,
        surface.SurfaceSpec,
        surface.ControlGrid,
        io.SpecDocument,
        io.SvgPath,
        gallery.RenderedFigure,
    )
}
ORACLE = {name: globals()[name] for name in PACKAGE}

COS, SIN = TermFamily.COSINE, TermFamily.SINE
SPACE = bbasis.BasisSpace(TRIG, 1, 2.0)
TERM = exact.Term(COS, 1, 1.0)
FN = exact.CoordinateFunction((TERM,))
ONE = exact.CoordinateFunction((exact.Term(COS, 0, 1.0),))
DIR = surface.Direction(TRIG, 1.0)
PRODUCT = surface.ProductTerm((FN, ONE))
SCOORD = surface.SurfaceCoordinateFunction((PRODUCT,))
CURVE_SPEC = exact.CurveSpec(TRIG, 2.0, (FN, FN))
SURFACE_SPEC = surface.SurfaceSpec((DIR, DIR), 1, (SCOORD,) * 3)
PTS = np.arange(6.0).reshape(3, 2)
CONTROL = curve.ControlCurve(SPACE, PTS)
PIECE = curve.BezierPiece(SPACE, PTS, np.ones(3), (0.0, 1.0))


def c(*args, **kwargs):
    return args, kwargs


CASES = {
    "BasisSpace": [
        c(TRIG, 2, 1.5),
        c(HYP, np.int64(3), 2),
        c(kind=TRIG, n=1, alpha=0.5),
        c(TRIG, 1, alpha=3),
        c("trig", 2, 1.0),
        c(TRIG, 2.0, 1.0),
        c(TRIG, "2", 1.0),
        c(TRIG, True, 1.0),
        c(TRIG, 0, 1.0),
        c(TRIG, 33, 1.0),
        c(TRIG, 2, math.nan),
        c(TRIG, 2, -1.0),
        c(TRIG, 2, 0.0),
        c(TRIG, 2, math.pi),
        c(HYP, 31, 10.0),
        c(TRIG, 2, "x"),
        c(TRIG, 2),
        c(TRIG),
        c(),
        c(TRIG, 2, 1.0, 4),
        c(TRIG, 2, 1.0, n=2),
        c(TRIG, 2, 1.0, beta=2),
    ],
    "NormalizingCoefficients": [
        c(SPACE, np.ones(3)),
        c(SPACE, values=np.ones(1)),
        c(SPACE),
    ],
    "TransformMatrix": [
        c(SPACE, np.eye(3)),
        c(space=SPACE, rows=None),
        c(SPACE, np.eye(3), 1),
    ],
    "ControlCurve": [
        c(SPACE, PTS),
        c(SPACE, [1.0, 2.0, 3.0]),
        c(SPACE, PTS, [1.0, 0.5, 1.0]),
        c(SPACE, points=PTS, weights=np.array([0.0, 1.0, 2.0])),
        c(SPACE, np.zeros((3, 2, 2))),
        c(SPACE, np.zeros((4, 2))),
        c(SPACE, np.zeros((3, 0))),
        c(SPACE, [[1.0], [math.inf], [0.0]]),
        c(SPACE, PTS, [1.0, 1.0]),
        c(SPACE, PTS, [1.0, -1.0, 1.0]),
        c(SPACE, PTS, [0.0, 0.0, 0.0]),
        c(SPACE, PTS, [1.0, math.nan, 1.0]),
        c(SPACE),
        c(SPACE, PTS, None, None),
    ],
    "BezierPiece": [
        c(SPACE, PTS, np.ones(3), (0.0, 1.0)),
        c(SPACE, PTS, np.ones(3), u_interval=(0.5, 1.0)),
        c(SPACE, PTS, np.ones(3)),
    ],
    "SubdivisionResult": [
        c(PIECE, PIECE, 0.25),
        c(PIECE, PIECE, split_ratio=0.5),
        c(PIECE, PIECE),
    ],
    "Term": [
        c(COS, 2, 1.5),
        c(SIN, np.int64(1), 2, 0.25),
        c(family=COS, frequency=0, amplitude=-1.0, phase=1),
        c(COS, 1, amplitude=2.0),
        c("cos", 1, 1.0),
        c(COS, -1, 1.0),
        c(COS, True, 1.0),
        c(COS, 1.5, 1.0),
        c(COS, 1, math.inf),
        c(COS, 1, 1.0, math.nan),
        c(COS, 1, "x"),
        c(COS, 1),
        c(COS, 1, 1.0, 0.0, 0.0),
        c(COS, 1, 1.0, phase=0.0, k=1),
    ],
    "CoordinateFunction": [
        c((TERM,)),
        c([TERM, TERM]),
        c(terms=()),
        c(),
        c((TERM,), (TERM,)),
    ],
    "CurveSpec": [
        c(TRIG, 2.0, (FN, FN)),
        c(HYP, 3, [FN]),
        c(kind=TRIG, alpha="1.5", coords=(FN,)),
        c("trig", 2.0, (FN,)),
        c(TRIG, 2.0, ()),
        c(TRIG, 4.0, (FN,)),
        c(TRIG, "x", (FN,)),
        c(TRIG, 2.0),
    ],
    "PreImageResult": [
        c(CONTROL, CONTROL, 2),
        c(CONTROL, CONTROL, elevations=0),
        c(CONTROL),
    ],
    "Direction": [
        c(TRIG, 1.0),
        c(HYP, 4),
        c(kind=HYP, alpha="2"),
        c(TRIG, 3.5),
        c("trig", 1.0),
        c(TRIG, math.inf),
        c(TRIG),
    ],
    "ProductTerm": [
        c((FN, ONE)),
        c([FN]),
        c(factors=()),
        c(),
    ],
    "SurfaceCoordinateFunction": [
        c((PRODUCT,)),
        c([PRODUCT, PRODUCT]),
        c(summands=()),
        c(()),
    ],
    "SurfaceSpec": [
        c((DIR, DIR), 1, (SCOORD,) * 3),
        c([DIR, DIR], np.int64(0), [SCOORD] * 3),
        c(directions=(DIR, DIR), kappa=0, coords=(SCOORD, SCOORD)),
        c((DIR,), 0, (SCOORD,)),
        c((DIR,) * 5, 0, (SCOORD,) * 5),
        c((DIR, DIR), -1, (SCOORD,) * 2),
        c((DIR, DIR), 1.5, (SCOORD,) * 2),
        c((DIR, DIR), True, (SCOORD,) * 3),
        c((DIR, DIR), 1, (SCOORD,) * 2),
        c((DIR, DIR), 0, (SCOORD,) * 4),
        c((DIR,) * 3, 0, (SCOORD,) * 3),
        c((DIR, DIR), 0),
    ],
    "ControlGrid": [
        c((1, 1), np.zeros((3, 3, 2))),
        c([np.int64(1), 2.0], np.zeros((3, 5, 1)), np.ones((3, 5))),
        c(orders=(1, 1), points=np.zeros((3, 3, 2)), weights=None),
        c((1, 1), np.zeros((3, 4, 2))),
        c((1, 1), np.zeros((3, 3, 2)), np.ones((3, 4))),
        c((1, 1), np.full((3, 3, 2), math.nan)),
        c((1, 1), np.zeros((3, 3, 2)), -np.ones((3, 3))),
        c((1, 1)),
    ],
    "SpecDocument": [
        c(1, CURVE_SPEC, False),
        c(1, SURFACE_SPEC, rational=True),
        c(1, CURVE_SPEC),
    ],
    "SvgPath": [
        c(PTS),
        c(PTS, "polygon"),
        c(PTS, "polygon", "a"),
        c(points=PTS, label="b"),
        c(),
        c(PTS, "curve", "d", 1),
        c(PTS, colour="red"),
    ],
    "RenderedFigure": [
        c("f", "svg", "<svg/>", 1e-15),
        c(name="f", suffix="obj", artifact="", error=0.0),
        c("f", "svg"),
    ],
}

CASE_IDS = [(name, i) for name in PACKAGE for i in range(len(CASES[name]))]


def outcome(action):
    """``("ok", value)`` or the raised exception's class and message.

    The messages of argument-binding ``TypeError``s are Python's own and
    name ``__init__`` differently, so only their class is compared.
    """
    try:
        return ("ok", action())
    except TypeError as exc:
        return ("raises", TypeError, None if "__init__()" in str(exc) else str(exc))
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return ("raises", type(exc), str(exc))


def build(cls, case):
    args, kwargs = case
    return cls(*args, **kwargs)


def test_every_record_has_cases():
    assert len(PACKAGE) == 18
    assert set(CASES) == set(PACKAGE)


@pytest.mark.parametrize("name,index", CASE_IDS, ids=[f"{n}-{i}" for n, i in CASE_IDS])
def test_construction_matches_dataclass(name, index):
    case = CASES[name][index]
    got = outcome(lambda: repr(build(PACKAGE[name], case)))
    want = outcome(lambda: repr(build(ORACLE[name], case)))
    assert got == want


def _valid_cases(name):
    for case in CASES[name]:
        try:
            build(ORACLE[name], case)
        except Exception:  # noqa: BLE001
            continue
        yield case


VALID_IDS = [
    (name, i) for name in PACKAGE for i, _ in enumerate(_valid_cases(name))
]


@pytest.mark.parametrize("name,index", VALID_IDS, ids=[f"{n}-{i}" for n, i in VALID_IDS])
class TestValidRecord:
    def pair(self, name, index):
        case = list(_valid_cases(name))[index]
        return build(PACKAGE[name], case), build(ORACLE[name], case), case

    def test_fields_defaults_and_keywords(self, name, index):
        got, want, (args, kwargs) = self.pair(name, index)
        fields = ORACLE[name].__match_args__
        assert PACKAGE[name].__match_args__ == fields
        for field in fields:
            assert repr(getattr(got, field)) == repr(getattr(want, field))
        by_keyword = PACKAGE[name](**{f: getattr(got, f) for f in fields})
        assert repr(by_keyword) == repr(got)

    def test_equality_and_hash(self, name, index):
        got, want, case = self.pair(name, index)
        twin_got, twin_want = build(PACKAGE[name], case), build(ORACLE[name], case)
        assert outcome(lambda: got == twin_got) == outcome(lambda: want == twin_want)
        assert outcome(lambda: got != twin_got) == outcome(lambda: want != twin_want)
        assert (got == got) is (want == want) is True
        assert (got == 1) is (want == 1) is False
        assert got != want  # different classes never compare equal
        assert outcome(lambda: hash(got)) == outcome(lambda: hash(want))

    def test_frozen(self, name, index):
        got, want, _ = self.pair(name, index)
        for attr in (ORACLE[name].__match_args__[0], "extra"):
            errors = []
            for obj in (got, want):
                with pytest.raises(AttributeError) as set_info:
                    setattr(obj, attr, 1)
                with pytest.raises(AttributeError) as del_info:
                    delattr(obj, attr)
                errors.append((str(set_info.value), str(del_info.value)))
            assert errors[0] == errors[1]
        assert repr(got) == repr(want)

    def test_copies(self, name, index):
        got, _, _ = self.pair(name, index)
        assert repr(copy.copy(got)) == repr(got)
        assert repr(copy.deepcopy(got)) == repr(got)
        assert repr(pickle.loads(pickle.dumps(got))) == repr(got)


def test_hash_keys_caches_across_equal_spaces():
    a = bbasis.BasisSpace(TRIG, 3, 1.25)
    b = bbasis.BasisSpace(TRIG, np.int64(3), 1.25)
    assert a == b and hash(a) == hash(b) == hash((TRIG, 3, 1.25))
    assert a != bbasis.BasisSpace(TRIG, 3, 1.5)
    assert len({a, b}) == 1


def _reached_records():
    """One instance of each record the public API returns, after the calls made on it.

    Every method and property of an instance is called before it is returned,
    so a value that a call leaves behind on the instance would show in ``vars``.
    """
    from chbez import (elevate, evaluate, evaluate_surface, exact_curve, exact_rational_curve,
                       exact_surface, normalizing_coefficients, parse_document, render_figure,
                       sample_lattice, subdivide, transform_matrix)

    curve_doc = parse_document(gallery.load_figure_text("hypocycloid"))
    rational = exact_rational_curve(parse_document(gallery.load_figure_text("lemniscate")).spec)
    patch_doc = parse_document(gallery.load_figure_text("torus_patch"))
    spec, patch = curve_doc.spec, patch_doc.spec
    spec.evaluate(np.linspace(0.0, spec.alpha, 3))
    spec.differentiated()
    crv = exact_curve(spec)
    evaluate(crv, 0.5)
    elevate(crv, 2)
    split = subdivide(crv, 0.5 * crv.space.alpha)
    piece = split.left
    piece.evaluate(0.25 * crv.space.alpha)
    piece.evaluate(np.linspace(0.0, 0.5 * crv.space.alpha, 5))
    assert rational.order >= 1 and rational.weights.min() > 0.0
    xf = transform_matrix(crv.space)
    assert xf.sine_row(1).shape == xf.cosine_row(1).shape
    fn = spec.coords[0]
    assert fn.max_frequency() >= 1 and fn.values(spec.kind, [0.0]).shape == (1,)
    fn.differentiated(spec.kind)
    grid = exact_surface(patch)
    sample_lattice(grid, patch.directions, [3] * patch.delta)
    evaluate_surface(grid, patch.directions, [0.0] * patch.delta)
    patch.evaluate([0.0] * patch.delta)
    patch.directions[0].space(1)
    svg = io.SvgPath(np.zeros((2, 2)), "curve")
    io.export_svg([svg])
    return [crv.space, normalizing_coefficients(crv.space), xf, curve_doc, spec, fn, fn.terms[0],
            crv, piece, split, rational, patch, patch.directions[0], patch.coords[0],
            patch.coords[0].summands[0], grid, svg, render_figure("hypocycloid")]


def test_records_carry_only_their_fields():
    made = {cls for module in (bbasis, curve, exact, gallery, io, surface, xform)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__dict__.get("__setattr__") is _record._refuse_set}
    instances = _reached_records()
    assert {type(x) for x in instances} == made == set(PACKAGE.values())
    for x in instances:
        assert list(vars(x)) == list(type(x).__annotations__), type(x).__name__
