"""Tests for spec parsing, exporters and the error taxonomy."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    CurveSpec,
    NumericalError,
    RangeError,
    SpecError,
    SurfaceSpec,
    SvgPath,
    TermFamily,
    export_obj,
    export_svg,
    export_table,
    figure_names,
    format_float,
    load_figure,
    parse_angle,
    parse_document,
    parse_spec,
    parse_table,
)


def curve_doc(**overrides):
    doc = {
        "version": 1,
        "type": "curve",
        "kind": "trigonometric",
        "alpha": "3pi/4",
        "coords": [
            {"terms": [{"family": "cos", "k": 1, "a": 2.0}]},
            {"terms": [{"family": "sin", "k": 1, "a": 2.0, "phase": "-pi/3"}]},
        ],
    }
    doc.update(overrides)
    return doc


def surface_doc(**overrides):
    doc = {
        "version": 1,
        "type": "surface",
        "directions": [
            {"kind": "trigonometric", "alpha": "pi/2"},
            {"kind": "hyperbolic", "alpha": 2.0},
        ],
        "coords": [
            {"summands": [{"factors": [
                {"terms": [{"family": "cos", "k": 1, "a": 1.0}]},
                {"terms": [{"family": "cosh", "k": 0, "a": 1.0}]},
            ]}]},
            {"summands": [{"factors": [
                {"terms": [{"family": "sin", "k": 1, "a": 1.0}]},
                {"terms": [{"family": "sinh", "k": 1, "a": 1.0}]},
            ]}]},
        ],
    }
    doc.update(overrides)
    return doc


class TestErrors:
    def test_spec_error_carries_path(self):
        err = SpecError("coords[2].terms[0].k", "must be a nonnegative integer")
        assert err.path == "coords[2].terms[0].k"
        assert str(err) == "coords[2].terms[0].k: must be a nonnegative integer"
        assert isinstance(err, ValueError)

    def test_spec_error_without_path(self):
        assert str(SpecError("", "not valid JSON")) == "not valid JSON"

    def test_numerical_error_indices(self):
        assert NumericalError("x").indices is None
        assert NumericalError("x", indices=[(1, 2)]).indices == [(1, 2)]
        assert isinstance(NumericalError("x"), ArithmeticError)

    def test_range_error_is_value_error(self):
        assert isinstance(RangeError("x"), ValueError)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("2pi/3", 2 * math.pi / 3),
            ("3pi/4", 3 * math.pi / 4),
            ("-5pi/3", -5 * math.pi / 3),
            ("1.5pi", 1.5 * math.pi),
            ("2.5", 2.5),
            ("-0.25", -0.25),
            ("  pi/2  ", math.pi / 2),
        ],
    )
    def test_literals_bit_exact(self, text, value):
        assert parse_angle(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(RangeError, match="cannot parse"):
            parse_angle("two pi")
        with pytest.raises(RangeError, match="zero divisor"):
            parse_angle("pi/0")


class TestFormatFloat:
    def test_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, 12345.6789, -2.5e300):
            assert float(format_float(x)) == x
        assert format_float(1.0) == "1.0"


class TestParseCurveDocument:
    def test_minimal_round_trip(self):
        doc = parse_document(json.dumps(curve_doc()))
        assert doc.version == 1
        assert not doc.rational
        spec = doc.spec
        assert isinstance(spec, CurveSpec)
        assert spec.kind is BasisKind.TRIGONOMETRIC
        assert spec.alpha == 3 * math.pi / 4
        assert spec.dimension == 2
        term = spec.coords[1].terms[0]
        assert term.family is TermFamily.SINE
        assert term.frequency == 1
        assert term.amplitude == 2.0
        assert term.phase == -math.pi / 3

    def test_parse_spec_shortcut(self):
        assert isinstance(parse_spec(json.dumps(curve_doc())), CurveSpec)

    def test_invalid_json(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_document("{nope")

    def test_non_object_document(self):
        with pytest.raises(SpecError, match="JSON object"):
            parse_document("[1, 2]")

    def test_unknown_top_level_field(self):
        with pytest.raises(SpecError, match="comment: unknown field"):
            parse_document(json.dumps(curve_doc(comment="hi")))

    def test_bad_version(self):
        with pytest.raises(SpecError, match="version"):
            parse_document(json.dumps(curve_doc(version=2)))

    def test_bad_type(self):
        with pytest.raises(SpecError, match="'curve' or 'surface'"):
            parse_document(json.dumps(curve_doc(type="mesh")))

    def test_bad_kind(self):
        with pytest.raises(SpecError, match="kind"):
            parse_document(json.dumps(curve_doc(kind="elliptic")))

    def test_family_must_match_kind(self):
        doc = curve_doc(kind="hyperbolic", alpha=2.0)
        with pytest.raises(SpecError, match=r"coords\[0\].terms\[0\].family"):
            parse_document(json.dumps(doc))

    def test_alpha_validated_for_kind(self):
        with pytest.raises(SpecError, match="alpha"):
            parse_document(json.dumps(curve_doc(alpha="pi")))
        with pytest.raises(SpecError, match="alpha: must be positive"):
            parse_document(json.dumps(curve_doc(alpha=-1.0)))
        hyp = curve_doc(kind="hyperbolic", alpha=40.0)
        hyp["coords"] = [{"terms": [{"family": "cosh", "k": 1, "a": 1.0}]}]
        parse_document(json.dumps(hyp))

    def test_frequency_validation_path(self):
        doc = curve_doc()
        doc["coords"][0]["terms"][0]["k"] = -1
        with pytest.raises(SpecError, match=r"coords\[0\].terms\[0\].k"):
            parse_document(json.dumps(doc))
        doc["coords"][0]["terms"][0]["k"] = True
        with pytest.raises(SpecError, match=r"coords\[0\].terms\[0\].k"):
            parse_document(json.dumps(doc))

    def test_unknown_term_field_path(self):
        doc = curve_doc()
        doc["coords"][0]["terms"][0]["weight"] = 1.0
        with pytest.raises(SpecError, match=r"coords\[0\].terms\[0\].weight: unknown"):
            parse_document(json.dumps(doc))

    def test_empty_coords_rejected(self):
        with pytest.raises(SpecError, match="at least 1"):
            parse_document(json.dumps(curve_doc(coords=[])))

    def test_rational_curve_needs_two_coordinates(self):
        doc = curve_doc(rational=True)
        doc["coords"] = doc["coords"][:1]
        with pytest.raises(SpecError, match="at least 2"):
            parse_document(json.dumps(doc))

    def test_rational_flag_must_be_boolean(self):
        with pytest.raises(SpecError, match="rational"):
            parse_document(json.dumps(curve_doc(rational="yes")))


class TestParseSurfaceDocument:
    def test_minimal_round_trip(self):
        doc = parse_document(json.dumps(surface_doc()))
        spec = doc.spec
        assert isinstance(spec, SurfaceSpec)
        assert spec.delta == 2
        assert spec.kappa == 0
        assert spec.directions[0].kind is BasisKind.TRIGONOMETRIC
        assert spec.directions[1].alpha == 2.0
        assert not spec.is_rational

    def test_rational_adjusts_kappa(self):
        doc = surface_doc(rational=True)
        doc["coords"] = doc["coords"] + [doc["coords"][0]]
        spec = parse_document(json.dumps(doc)).spec
        assert spec.kappa == 0
        assert spec.is_rational

    def test_too_few_coords(self):
        doc = surface_doc()
        doc["coords"] = doc["coords"][:1]
        with pytest.raises(SpecError, match="cannot cover"):
            parse_document(json.dumps(doc))

    def test_too_many_directions(self):
        doc = surface_doc()
        doc["directions"] = doc["directions"] * 3
        with pytest.raises(SpecError, match="at most 4"):
            parse_document(json.dumps(doc))

    def test_factor_count_path(self):
        doc = surface_doc()
        doc["coords"][1]["summands"][0]["factors"].append(
            {"terms": [{"family": "cos", "k": 0, "a": 1.0}]}
        )
        with pytest.raises(SpecError, match=r"coords\[1\].summands\[0\].factors"):
            parse_document(json.dumps(doc))

    def test_factor_family_checked_per_direction(self):
        doc = surface_doc()
        doc["coords"][0]["summands"][0]["factors"][1]["terms"][0]["family"] = "cos"
        with pytest.raises(SpecError, match=r"factors\[1\].terms\[0\].family"):
            parse_document(json.dumps(doc))

    def test_direction_must_be_object(self):
        doc = surface_doc()
        doc["directions"][0] = "trig"
        with pytest.raises(SpecError, match=r"directions\[0\]"):
            parse_document(json.dumps(doc))


_DELETE = object()


def derived(base, *edits):
    """``base()`` with each ``(keys, value)`` edit applied.

    The value ``_DELETE`` removes the entry; an index one past a list's end appends.
    """
    doc = base()
    for keys, value in edits:
        *head, last = keys
        node = doc
        for key in head:
            node = node[key]
        if value is _DELETE:
            del node[last]
        elif isinstance(node, list) and last == len(node):
            node.append(value)
        else:
            node[last] = value
    return doc


C_TERM = ("coords", 0, "terms", 0)
S_SUMMAND = ("coords", 0, "summands", 0)
S_FACTORS = S_SUMMAND + ("factors",)
S_TERM = S_FACTORS + (1, "terms", 0)
_TRIG_ALPHA = "trigonometric alpha must lie in (0, pi), got 3.141592653589793"
_TWO_DIRECTIONS = [{"kind": "trigonometric", "alpha": 1.0}] * 2
_NEGATIVE_K = "must be a nonnegative integer, got -1"

# id, document (or JSON text) -> the whole SpecError text.  Every `raise SpecError`
# site of the parser appears, for curve and surface documents where it applies; the
# two-fault rows pin which fault is reported first.
SPEC_ERRORS = [
    ("json", "{nope",
     "not valid JSON (Expecting property name enclosed in double quotes at line 1)"),
    ("not-object", "[1, 2]", "document must be a JSON object"),
    ("json-too-deep", "[" * 5000 + "]" * 5000, "not valid JSON (nested too deeply)"),
    ("type-missing", derived(curve_doc, (("type",), _DELETE)), "type: must be a string, got None"),
    ("type-bad", curve_doc(type="mesh"), "type: must be 'curve' or 'surface', got 'mesh'"),
    ("curve-unknown", curve_doc(comment="hi"), "comment: unknown field"),
    ("surface-unknown", surface_doc(kind="trigonometric"), "kind: unknown field"),
    ("version", curve_doc(version=2), "version: unsupported version 2 (expected 1)"),
    ("version-missing", derived(surface_doc, (("version",), _DELETE)),
     "version: unsupported version None (expected 1)"),
    ("rational-not-bool", surface_doc(rational="yes"), "rational: must be a boolean"),
    ("rational-curve-one-coord",
     derived(curve_doc, (("rational",), True), (("coords", 1), _DELETE)),
     "coords: a rational curve needs at least 2 coordinates"),
    # A curve's kind and alpha.
    ("kind-missing", derived(curve_doc, (("kind",), _DELETE)), "kind: must be a string, got None"),
    ("kind-bad", curve_doc(kind="elliptic"),
     "kind: must be 'trigonometric' or 'hyperbolic', got 'elliptic'"),
    ("alpha-garbage", curve_doc(alpha="two pi"), "alpha: cannot parse angle literal 'two pi'"),
    ("alpha-zero-divisor", curve_doc(alpha="pi/0"), "alpha: zero divisor in angle literal 'pi/0'"),
    ("alpha-bool", curve_doc(alpha=True), "alpha: must be a number or an angle literal, got True"),
    ("alpha-missing", derived(curve_doc, (("alpha",), _DELETE)),
     "alpha: must be a number or an angle literal, got None"),
    ("alpha-infinite", curve_doc(alpha="1e999"), "alpha: must be finite, got inf"),
    ("alpha-negative", curve_doc(alpha=-1.0), "alpha: must be positive, got -1.0"),
    ("alpha-range", curve_doc(alpha="pi"), f"alpha: {_TRIG_ALPHA}"),
    ("alpha-hyperbolic-range", derived(
        curve_doc, (("kind",), "hyperbolic"), (("alpha",), 400.0),
        (("coords",), [{"terms": [{"family": "cosh", "k": 1, "a": 1.0}]}])),
     "alpha: hyperbolic n*alpha = 400 exceeds the overflow guard 300"),
    # A curve's coordinates and terms.
    ("coords-missing", derived(curve_doc, (("coords",), _DELETE)),
     "coords: must be an array, got None"),
    ("coords-empty", curve_doc(coords=[]), "coords: must have at least 1 entry"),
    ("coord-not-object", derived(curve_doc, (("coords", 1), "x")), "coords[1]: must be an object"),
    ("coord-unknown", derived(curve_doc, (("coords", 0, "summands"), [])),
     "coords[0].summands: unknown field"),
    ("terms-not-list", derived(curve_doc, (("coords", 0, "terms"), {})),
     "coords[0].terms: must be an array, got {}"),
    ("terms-empty", derived(curve_doc, (("coords", 1, "terms"), [])),
     "coords[1].terms: must have at least 1 entry"),
    ("term-not-object", derived(curve_doc, (C_TERM, 3)), "coords[0].terms[0]: must be an object"),
    ("term-unknown", derived(curve_doc, (C_TERM + ("weight",), 1.0)),
     "coords[0].terms[0].weight: unknown field"),
    ("family-missing", derived(curve_doc, (C_TERM + ("family",), _DELETE)),
     "coords[0].terms[0].family: must be a string, got None"),
    ("family-kind", derived(curve_doc, (C_TERM + ("family",), "cosh")),
     "coords[0].terms[0].family: 'cosh' does not match the trigonometric kind "
     "(expected cos or sin)"),
    ("k-negative", derived(curve_doc, (C_TERM + ("k",), -1)),
     f"coords[0].terms[0].k: {_NEGATIVE_K}"),
    ("k-bool", derived(curve_doc, (C_TERM + ("k",), True)),
     "coords[0].terms[0].k: must be a nonnegative integer, got True"),
    ("k-float", derived(curve_doc, (C_TERM + ("k",), 1.0)),
     "coords[0].terms[0].k: must be a nonnegative integer, got 1.0"),
    ("a-string", derived(curve_doc, (C_TERM + ("a",), "2")),
     "coords[0].terms[0].a: must be a number, got '2'"),
    ("a-infinite", derived(curve_doc, (C_TERM + ("a",), float("inf"))),
     "coords[0].terms[0].a: must be finite, got inf"),
    ("phase-garbage", derived(curve_doc, (("coords", 1, "terms", 0, "phase"), "x")),
     "coords[1].terms[0].phase: cannot parse angle literal 'x'"),
    ("phase-null", derived(curve_doc, (C_TERM + ("phase",), None)),
     "coords[0].terms[0].phase: must be a number or an angle literal, got None"),
    ("phase-infinite", derived(curve_doc, (C_TERM + ("phase",), float("-inf"))),
     "coords[0].terms[0].phase: must be finite, got -inf"),
    # A JSON integer beyond double range reads as an infinity.
    ("a-huge-integer", derived(curve_doc, (C_TERM + ("a",), 10**400)),
     "coords[0].terms[0].a: must be finite, got inf"),
    ("phase-huge-integer", derived(curve_doc, (C_TERM + ("phase",), -(10**400))),
     "coords[0].terms[0].phase: must be finite, got -inf"),
    ("alpha-huge-integer", curve_doc(alpha=10**400), "alpha: must be finite, got inf"),
    ("direction-alpha-huge-integer", derived(surface_doc, (("directions", 1, "alpha"), 10**400)),
     "directions[1].alpha: must be finite, got inf"),
    # A patch's directions.
    ("directions-missing", derived(surface_doc, (("directions",), _DELETE)),
     "directions: must be an array, got None"),
    ("directions-one", derived(surface_doc, (("directions", 1), _DELETE)),
     "directions: must have at least 2 entries"),
    ("directions-five", surface_doc(directions=_TWO_DIRECTIONS * 2 + _TWO_DIRECTIONS[:1]),
     "directions: at most 4 directions supported"),
    ("direction-not-object", derived(surface_doc, (("directions", 0), "trig")),
     "directions[0]: must be an object"),
    ("direction-unknown", derived(surface_doc, (("directions", 1, "weight"), 1)),
     "directions[1].weight: unknown field"),
    ("direction-kind-missing", derived(surface_doc, (("directions", 0, "kind"), _DELETE)),
     "directions[0].kind: must be a string, got None"),
    ("direction-kind-bad", derived(surface_doc, (("directions", 1, "kind"), "elliptic")),
     "directions[1].kind: must be 'trigonometric' or 'hyperbolic', got 'elliptic'"),
    ("direction-alpha-garbage", derived(surface_doc, (("directions", 1, "alpha"), "2 pi")),
     "directions[1].alpha: cannot parse angle literal '2 pi'"),
    ("direction-alpha-negative", derived(surface_doc, (("directions", 0, "alpha"), -1.0)),
     "directions[0].alpha: must be positive, got -1.0"),
    ("direction-alpha-range", derived(surface_doc, (("directions", 0, "alpha"), "pi")),
     f"directions[0].alpha: {_TRIG_ALPHA}"),
    # A patch's coordinates, summands and factors.
    ("surface-coords-missing", derived(surface_doc, (("coords",), _DELETE)),
     "coords: must be an array, got None"),
    ("surface-coords-empty", surface_doc(coords=[]), "coords: must have at least 1 entry"),
    ("kappa", derived(surface_doc, (("coords", 1), _DELETE)),
     "coords: 1 coordinate(s) cannot cover 2 direction(s)"),
    ("kappa-rational", surface_doc(rational=True),
     "coords: 2 coordinate(s) cannot cover 2 direction(s) plus a denominator"),
    ("surface-coord-not-object", derived(surface_doc, (("coords", 0), [])),
     "coords[0]: must be an object"),
    ("surface-coord-unknown", derived(surface_doc, (("coords", 1, "terms"), [])),
     "coords[1].terms: unknown field"),
    ("summands-missing", derived(surface_doc, (("coords", 0, "summands"), _DELETE)),
     "coords[0].summands: must be an array, got None"),
    ("summands-empty", derived(surface_doc, (("coords", 0, "summands"), [])),
     "coords[0].summands: must have at least 1 entry"),
    ("summand-not-object", derived(surface_doc, (S_SUMMAND, 1)),
     "coords[0].summands[0]: must be an object"),
    ("summand-unknown", derived(surface_doc, (S_SUMMAND + ("scale",), 2.0)),
     "coords[0].summands[0].scale: unknown field"),
    ("factors-missing", derived(surface_doc, (S_FACTORS, _DELETE)),
     "coords[0].summands[0].factors: must be an array, got None"),
    ("factors-empty", derived(surface_doc, (S_FACTORS, [])),
     "coords[0].summands[0].factors: must have at least 1 entry"),
    ("factors-count", derived(surface_doc, (S_FACTORS + (2,), {"terms": []})),
     "coords[0].summands[0].factors: expected 2 factors, got 3"),
    ("factor-not-object", derived(surface_doc, (S_FACTORS + (1,), "x")),
     "coords[0].summands[0].factors[1]: must be an object"),
    ("factor-unknown", derived(surface_doc, (S_FACTORS + (0, "summands"), [])),
     "coords[0].summands[0].factors[0].summands: unknown field"),
    ("factor-terms-empty", derived(surface_doc, (S_FACTORS + (1, "terms"), [])),
     "coords[0].summands[0].factors[1].terms: must have at least 1 entry"),
    ("factor-term-not-object", derived(surface_doc, (S_TERM, None)),
     "coords[0].summands[0].factors[1].terms[0]: must be an object"),
    ("factor-family-kind", derived(surface_doc, (S_TERM + ("family",), "cos")),
     "coords[0].summands[0].factors[1].terms[0].family: 'cos' does not match the hyperbolic "
     "kind (expected cosh or sinh)"),
    ("factor-k-negative", derived(surface_doc, (S_TERM + ("k",), -1)),
     f"coords[0].summands[0].factors[1].terms[0].k: {_NEGATIVE_K}"),
    ("factor-a-null", derived(surface_doc, (S_TERM + ("a",), None)),
     "coords[0].summands[0].factors[1].terms[0].a: must be a number, got None"),
    ("factor-phase-bool", derived(surface_doc, (S_TERM + ("phase",), False)),
     "coords[0].summands[0].factors[1].terms[0].phase: must be a number or an angle literal, "
     "got False"),
    # Two faults: the one reported first.
    ("curve-alpha-range-after-coords",
     derived(curve_doc, (("alpha",), "pi"), (C_TERM + ("k",), -1)),
     f"coords[0].terms[0].k: {_NEGATIVE_K}"),
    ("curve-alpha-range-before-rational-count", derived(
        curve_doc, (("alpha",), "pi"), (("rational",), True), (("coords", 1), _DELETE)),
     f"alpha: {_TRIG_ALPHA}"),
    ("direction-alpha-range-before-coords", derived(
        surface_doc, (("directions", 0, "alpha"), "pi"), (S_TERM + ("k",), -1)),
     f"directions[0].alpha: {_TRIG_ALPHA}"),
    ("direction-before-coords-list", derived(
        surface_doc, (("directions", 1, "kind"), None), (("coords",), _DELETE)),
     "directions[1].kind: must be a string, got None"),
    ("unknown-before-version", curve_doc(version=2, comment="hi"), "comment: unknown field"),
    ("type-before-unknown", curve_doc(type="mesh", comment="hi"),
     "type: must be 'curve' or 'surface', got 'mesh'"),
    ("kind-before-alpha", curve_doc(kind="elliptic", alpha=-1.0),
     "kind: must be 'trigonometric' or 'hyperbolic', got 'elliptic'"),
    ("alpha-before-coords", curve_doc(alpha=-1.0, coords=[]), "alpha: must be positive, got -1.0"),
    ("coord-before-next-entry", derived(curve_doc, (C_TERM + ("k",), -1), (("coords", 1), "x")),
     f"coords[0].terms[0].k: {_NEGATIVE_K}"),
    ("term-before-next-term", derived(
        curve_doc, (("coords", 0, "terms"), [{"family": "sin", "k": -1, "a": 1.0}, 7])),
     f"coords[0].terms[0].k: {_NEGATIVE_K}"),
    ("term-unknown-before-family",
     derived(curve_doc, (C_TERM + ("w",), 1), (C_TERM + ("family",), 1)),
     "coords[0].terms[0].w: unknown field"),
    ("direction-before-next-direction", derived(
        surface_doc, (("directions", 0, "kind"), "x"), (("directions", 1), 0)),
     "directions[0].kind: must be 'trigonometric' or 'hyperbolic', got 'x'"),
    ("direction-cap-before-entries", surface_doc(directions=["x"] * 5),
     "directions: at most 4 directions supported"),
    ("kappa-before-entries", surface_doc(coords=["x"]),
     "coords: 1 coordinate(s) cannot cover 2 direction(s)"),
    ("factor-count-before-entries", derived(surface_doc, (S_FACTORS, ["x", "y", "z"])),
     "coords[0].summands[0].factors: expected 2 factors, got 3"),
    ("summand-before-next-coord", derived(surface_doc, (S_SUMMAND + ("w",), 1), (("coords", 1), 1)),
     "coords[0].summands[0].w: unknown field"),
    ("factor-before-next-summand", derived(
        surface_doc, (S_TERM + ("k",), -1), (("coords", 0, "summands", 1), 5)),
     f"coords[0].summands[0].factors[1].terms[0].k: {_NEGATIVE_K}"),
    # No order can describe a frequency above the order cap, MAX_DEGREE // 2 = 32.
    ("k-cap", derived(curve_doc, (C_TERM + ("k",), 33)),
     "coords[0].terms[0].k: 33 exceeds the order cap 32"),
    ("factor-k-cap", derived(surface_doc, (S_TERM + ("k",), 40)),
     "coords[0].summands[0].factors[1].terms[0].k: 40 exceeds the order cap 32"),
    ("k-cap-before-next-term", derived(curve_doc, (("coords", 1, "terms", 0, "k"), 33),
                                       (("coords", 1, "terms", 1), None)),
     "coords[1].terms[0].k: 33 exceeds the order cap 32"),
    ("curve-alpha-range-after-k-cap", derived(curve_doc, (("alpha",), "pi"), (C_TERM + ("k",), 64)),
     "coords[0].terms[0].k: 64 exceeds the order cap 32"),
]  # fmt: skip


@pytest.mark.parametrize(
    "doc, message", [row[1:] for row in SPEC_ERRORS], ids=[row[0] for row in SPEC_ERRORS]
)
def test_spec_error_text(doc, message):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(SpecError) as exc:
        parse_document(text)
    assert str(exc.value) == message


def test_too_deep_nesting_is_a_spec_error_at_the_root():
    with pytest.raises(SpecError) as exc:
        parse_document('{"coords": ' + "[" * 5000 + "]" * 5000 + "}")
    assert (exc.value.path, exc.value.message) == ("", "not valid JSON (nested too deeply)")


def test_frequency_at_the_order_cap_parses():
    doc = derived(curve_doc, (C_TERM + ("k",), 32))
    assert parse_document(json.dumps(doc)).spec.coords[0].terms[0].frequency == 32


class TestBundledFigures:
    def test_all_figures_parse(self):
        names = figure_names()
        assert len(names) == 15
        assert len(set(names)) == 15
        for name in names:
            doc = load_figure(name)
            assert doc.version == 1

    def test_declared_rationality(self):
        rational = {
            "lemniscate",
            "rational_hyperbolic_arc_a",
            "rational_hyperbolic_arc_b",
            "rational_trigonometric_patch",
            "rational_hyperbolic_butterfly",
            "hybrid_rational_volume",
        }
        for name in figure_names():
            assert load_figure(name).rational == (name in rational)

    def test_unknown_figure_rejected(self):
        with pytest.raises(RangeError, match="unknown figure"):
            load_figure("klein_bottle")

    def test_hypocycloid_alpha_is_exact(self):
        assert load_figure("hypocycloid").spec.alpha == 3 * math.pi / 4


class TestExportSvg:
    def test_structure_and_determinism(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        text = export_svg([SvgPath(pts)])
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert text.endswith("</svg>\n")
        assert text.count("<path") == 1
        assert "<circle" not in text
        assert text == export_svg([SvgPath(pts)])

    def test_polygon_gets_markers_and_labels(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        text = export_svg([SvgPath(pts, role="polygon", label="d")])
        assert text.count("<circle") == 3
        assert ">d0</text>" in text and ">d2</text>" in text
        assert "stroke-dasharray" in text

    def test_labels_are_xml_escaped(self):
        from xml.dom import minidom
        from xml.sax.saxutils import escape

        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        label = 'a<b&">%&amp;'
        text = export_svg([SvgPath(pts, role="polygon", label=label)])
        texts = minidom.parseString(text).getElementsByTagName("text")
        assert [node.firstChild.data for node in texts] == [label + "0", label + "1"]
        assert f">{escape(label)}0</text>" in text

    def test_y_axis_is_flipped(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        text = export_svg([SvgPath(pts)])
        assert "M 0.0,-1.0 L 2.0,-3.0" in text

    def test_viewbox_covers_points_with_margin(self):
        pts = np.array([[0.0, 0.0], [2.0, 1.0]])
        text = export_svg([SvgPath(pts)])
        viewbox = text.split('viewBox="')[1].split('"')[0]
        x0, y0, w, h = (float(t) for t in viewbox.split())
        assert_allclose([x0, y0, w, h], [-0.1, -1.1, 2.2, 1.2], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(RangeError, match="empty"):
            export_svg([])
        with pytest.raises(RangeError, match="not 2-d"):
            export_svg([SvgPath(np.zeros((4, 3)))])
        with pytest.raises(RangeError, match="at least 2 points"):
            export_svg([SvgPath(np.zeros((1, 2)))])
        with pytest.raises(RangeError, match="non-finite"):
            export_svg([SvgPath(np.full((2, 2), np.nan))])
        with pytest.raises(RangeError, match="unknown role"):
            export_svg([SvgPath(np.zeros((2, 2)), role="axis")])


class TestExportObj:
    def test_polyline_golden(self):
        text = export_obj(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        assert text == "g samples\nv 0.0 0.0 0.0\nv 1.0 2.0 3.0\nl 1 2\n"

    def test_patch_quads(self):
        samples = np.zeros((3, 3, 3))
        text = export_obj(samples)
        faces = [line for line in text.splitlines() if line.startswith("f ")]
        assert len(faces) == 4
        assert faces[0] == "f 1 4 5 2"
        assert text.count("\nv ") == 9

    def test_volume_boundary_quads(self):
        samples = np.zeros((2, 2, 2, 3))
        text = export_obj(samples)
        faces = [line for line in text.splitlines() if line.startswith("f ")]
        assert len(faces) == 6

    def test_control_net_edges(self):
        samples = np.zeros((3, 3, 3))
        net = np.arange(12, dtype=float).reshape(2, 2, 3)
        text = export_obj(samples, net)
        assert "g control_net" in text
        edges = [line for line in text.splitlines() if line.startswith("l ")]
        assert len(edges) == 4
        assert "l 10 12" in text

    def test_validation(self):
        with pytest.raises(RangeError, match=r"\(\.\.\., 3\)"):
            export_obj(np.zeros((4, 2)))
        with pytest.raises(RangeError, match="at least 2 samples"):
            export_obj(np.zeros((1, 3)))
        with pytest.raises(RangeError, match="non-finite"):
            export_obj(np.full((2, 3), np.inf))
        with pytest.raises(RangeError, match="does not match"):
            export_obj(np.zeros((2, 2, 3)), np.zeros((3, 3)))
        with pytest.raises(RangeError, match="control net contains non-finite"):
            export_obj(np.zeros((2, 2, 3)), np.full((2, 2, 3), np.nan))


class TestTables:
    def test_csv_golden(self):
        text = export_table([[1.5, 2.0], [3.0, 4.25]], "csv", columns=["a", "b"])
        assert text == "a,b\n1.5,2.0\n3.0,4.25\n"

    def test_csv_round_trip_is_exact(self):
        data = np.array([[1.0 / 3.0, 0.1], [1e-17, -2.5e300]])
        back, columns = parse_table(export_table(data, "csv"), "csv")
        assert columns is None
        assert np.all(back == data)

    def test_csv_header_detection(self):
        back, columns = parse_table("a,b\n1.0,2.0\n", "csv")
        assert columns == ["a", "b"]
        assert np.all(back == np.array([[1.0, 2.0]]))

    def test_csv_one_dimensional_becomes_column(self):
        text = export_table(np.array([1.0, 2.0]), "csv")
        assert text == "1.0\n2.0\n"

    def test_empty_csv(self):
        back, columns = parse_table("", "csv")
        assert back.shape == (0, 0)
        assert columns is None

    def test_json_round_trip(self):
        data = np.array([[0.1, 0.2], [0.3, 1.0 / 3.0]])
        text = export_table(data, "json", columns=["u", "x"])
        back, columns = parse_table(text, "json")
        assert columns == ["u", "x"]
        assert np.all(back == data)

    def test_json_round_trip_keeps_non_finite_values(self):
        data = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1e308]])
        back, _ = parse_table(export_table(data, "json"), "json")
        assert back.tobytes() == data.tobytes()

    def test_validation(self):
        with pytest.raises(RangeError, match="at most 2-d"):
            export_table(np.zeros((2, 2, 2)), "csv")
        with pytest.raises(RangeError, match="column names"):
            export_table(np.zeros((2, 2)), "csv", columns=["a"])
        with pytest.raises(RangeError, match="unknown table format"):
            export_table(np.zeros(2), "yaml")
        with pytest.raises(RangeError, match="unknown table format"):
            parse_table("", "yaml")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0,2.0\n3.0\n", "CSV line 2: expected 2 fields, got 1"),
            ("a,b\nx,1\n", "CSV line 2: a data cell is not a number"),
            ("a,b\n1.0\n", "CSV line 2: expected 2 fields, got 1"),
            ("a,b\n\n1.0,2.0\n3.0,y\n", "CSV line 4: a data cell is not a number"),
            ("1.0\n2.0,3.0\n", "CSV line 2: expected 1 fields, got 2"),
        ],
    )
    def test_malformed_csv_names_the_line(self, text, message):
        with pytest.raises(RangeError) as exc:
            parse_table(text, "csv")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", 'JSON table: expected an object with a "data" entry'),
            ('{"rows": []}', 'JSON table: expected an object with a "data" entry'),
            ('{"data": [[1, 2], [3]]}', "JSON table: data[1] has shape (1,), not (2,)"),
            ('{"data": [[1, "a"]]}', "JSON table: data[0][1] is not a number"),
            ("nope", "JSON table: not valid JSON (Expecting value at line 1)"),
            ('{"data": [1' + "0" * 400 + "]}",
             "JSON table: data holds an integer beyond double range"),
            ('{"data": [[1, null]]}', "JSON table: data[0][1] is not a number"),
            ('{"data": [true, 2.5]}', "JSON table: data[0] is not a number"),
            ('{"data": [1, "2.5"]}', "JSON table: data[1] is not a number"),
        ],
        ids=["list", "no-data", "ragged", "non-number", "invalid", "huge-integer", "null",
             "bool", "numeric-string"],
    )
    def test_malformed_json_names_the_fault(self, text, message):
        with pytest.raises(RangeError) as exc:
            parse_table(text, "json")
        assert str(exc.value) == message

    def test_csv_round_trip_keeps_every_bit(self):
        data = np.array([[-0.0, np.inf, -np.inf], [5e-324, 1.7976931348623157e308, 0.1]])
        back, columns = parse_table(export_table(data, "csv", ["a", "b", "c"]), "csv")
        assert columns == ["a", "b", "c"]
        assert back.tobytes() == data.tobytes()

    def test_header_only_csv_keeps_its_columns(self):
        back, columns = parse_table("x,y\n", "csv")
        assert back.shape == (0, 2)
        assert columns == ["x", "y"]

    @pytest.mark.parametrize(
        "columns, message",
        [
            (["a,b", "c"], "column name 'a,b' contains a comma or a line break"),
            (["x\ny", "z"], "column name 'x\\\\ny' contains a comma or a line break"),
            (["x", "y\r"], "column name 'y\\\\r' contains a comma or a line break"),
            (["x", "y\u2028z"], "column name 'y\\\\u2028z' contains a comma or a line break"),
            (["1", "2"], "column names \\['1', '2'\\] all parse as numbers"),
            (["nan", " -1e3"], "column names \\['nan', ' -1e3'\\] all parse as numbers"),
            ([1, 2.5], "column names \\['1', '2.5'\\] all parse as numbers"),
            ([" "], "column names \\[' '\\] make a blank header line"),
        ],
        ids=["comma", "newline", "return", "line-separator", "numbers", "nan-and-exponent",
             "non-str-numbers", "blank"],
    )
    def test_csv_header_that_would_not_read_back_is_refused(self, columns, message):
        data = np.ones((2, len(columns)))
        with pytest.raises(RangeError, match=f"^{message}$"):
            export_table(data, "csv", columns)

    @pytest.mark.parametrize(
        "columns", [["u1", "u2", "x"], ["1", "b", "2"], ["nan", "inf", "weight"], [" a", "b ", ""]]
    )
    def test_csv_header_round_trips(self, columns):
        data = np.arange(6.0).reshape(2, 3)
        back, names = parse_table(export_table(data, "csv", columns), "csv")
        assert names == columns
        assert np.all(back == data)

    def test_json_columns_are_not_checked(self):
        text = export_table(np.ones((1, 2)), "json", ["1", "a,b"])
        assert parse_table(text, "json")[1] == ["1", "a,b"]
