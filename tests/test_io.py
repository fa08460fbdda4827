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

    def test_validation(self):
        with pytest.raises(RangeError, match="at most 2-d"):
            export_table(np.zeros((2, 2, 2)), "csv")
        with pytest.raises(RangeError, match="column names"):
            export_table(np.zeros((2, 2)), "csv", columns=["a"])
        with pytest.raises(RangeError, match="unknown table format"):
            export_table(np.zeros(2), "yaml")
        with pytest.raises(RangeError, match="unknown table format"):
            parse_table("", "yaml")
