"""End to end tests for the command line front end."""

import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chbez
from chbez import (
    BasisKind,
    BasisSpace,
    BezierPiece,
    exact_curve,
    exact_rational_surface,
    exact_surface,
    export_table,
    load_figure,
    load_figure_text,
    min_order,
    parse_document,
    parse_table,
)
from chbez.cli import main
from test_basis_accuracy import oracle_basis

EPS = np.finfo(float).eps


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_figure(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(load_figure_text(name))
    return str(path)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rational_circle_doc(denominator_terms):
    return {
        "version": 1,
        "type": "curve",
        "kind": "trigonometric",
        "alpha": 2.0,
        "rational": True,
        "coords": [
            {"terms": [{"family": "cos", "k": 1, "a": 1.0}]},
            {"terms": [{"family": "sin", "k": 1, "a": 1.0}]},
            {"terms": denominator_terms},
        ],
    }


class TestBasis:
    def test_csv_table(self, capsys):
        code, out, err = run(
            capsys, "basis", "--kind", "trig", "--alpha", "pi/2", "--order", "1",
            "--samples", "5",
        )
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "u,b0,b1,b2"
        assert lines[1] == "0.0,1.0,0.0,0.0"
        assert len(lines) == 6

    def test_json_table(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--kind", "hyperbolic", "--alpha", "2.0", "--order", "2",
            "--samples", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["u", "b0", "b1", "b2", "b3", "b4"]
        assert len(payload["data"]) == 7

    def test_partition_of_unity_in_output(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--kind", "trig", "--alpha", "2pi/3", "--order", "3",
            "--samples", "20",
        )
        assert code == 0
        table, _ = parse_table(out, "csv")
        assert_allclose(table[:, 1:].sum(axis=1), 1.0, atol=1e-12)

    def test_bad_kind_exits_2(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "euclidean", "--alpha", "1",
                             "--order", "1")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "basis", "--kind", "trig", "--alpha", "pi",
                           "--order", "1")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("count", ["-1", "0", "1"])
    def test_too_few_samples_exit_2(self, capsys, count):
        code, out, err = run(capsys, "basis", "--kind", "trig", "--alpha", "1",
                             "--order", "1", "--samples", count)
        assert code == 2 and out == ""
        assert err == f"error: --samples: need at least 2 samples, got {count}\n"


class TestXform:
    def test_quarter_turn_matrix(self, capsys):
        code, out, _ = run(capsys, "xform", "--kind", "trig", "--alpha", "pi/2",
                           "--order", "1")
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns is None
        expected = [
            [1.0, 1.0, 1.0],
            [0.0, math.tan(math.pi / 4), 1.0],
            [1.0, 1.0, math.cos(math.pi / 2)],
        ]
        assert_allclose(table, expected, atol=1e-15)


class TestDescribe:
    def test_rational_curve_table(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "lemniscate")
        code, out, _ = run(capsys, "describe", "--spec", spec)
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns == ["x", "y", "weight"]
        assert table.shape == (5, 3)
        assert np.all(table[:, 2] > 0.0)

    def test_order_flag_changes_row_count(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "lemniscate")
        code, out, _ = run(capsys, "describe", "--spec", spec, "--order", "4")
        assert code == 0
        table, _ = parse_table(out, "csv")
        assert table.shape == (9, 3)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "lemniscate")
        target = tmp_path / "polygon.csv"
        code, out, _ = run(capsys, "describe", "--spec", spec, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,y,weight\n")

    def test_below_minimum_order_exits_2(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, _, err = run(capsys, "describe", "--spec", spec, "--order", "1")
        assert code == 2
        assert "minimum order" in err

    def test_derivative_polygon(self, capsys, tmp_path):
        spec_path = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "describe", "--spec", spec_path, "--derivative", "1")
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns == ["x", "y"]
        doc = load_figure("hypocycloid")
        expected = exact_curve(doc.spec, min_order(doc.spec), 1).points
        assert_allclose(table, expected, rtol=1e-14)

    def test_derivative_on_rational_exits_2(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "lemniscate")
        code, _, err = run(capsys, "describe", "--spec", spec, "--derivative", "1")
        assert code == 2
        assert "not supported for rational" in err

    def test_surface_table_lists_multi_indices(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_patch")
        code, out, _ = run(capsys, "describe", "--spec", spec)
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns == ["i1", "i2", "x", "y", "z"]
        assert table.shape == (9, 5)
        assert table[0, 0] == 0.0 and table[-1, 1] == 2.0

    def test_surface_net_as_obj(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_patch")
        code, out, _ = run(capsys, "describe", "--spec", spec, "--format", "obj")
        assert code == 0
        assert out.startswith("g samples\n")
        assert sum(1 for line in out.splitlines() if line.startswith("f ")) == 4

    def test_polygon_as_svg(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "quadrifolium")
        code, out, _ = run(capsys, "describe", "--spec", spec, "--format", "svg")
        assert code == 0
        assert out.startswith("<?xml")
        assert "stroke-dasharray" in out

    def test_svg_needs_planar_points(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_knot")
        code, _, err = run(capsys, "describe", "--spec", spec, "--format", "svg")
        assert code == 2
        assert "svg needs 2-d" in err


class TestDescribeSurfaceRows:
    """Surface ``describe`` tables against a row-by-row reference."""

    @staticmethod
    def reference(name, fmt):
        doc = load_figure(name)
        if doc.rational:
            grid = exact_rational_surface(doc.spec)
        else:
            grid = exact_surface(doc.spec)
        dims = grid.points.shape[:-1]
        rows = []
        for idx in np.ndindex(dims):
            row = list(idx) + list(grid.points[idx])
            if grid.weights is not None:
                row.append(grid.weights[idx])
            rows.append(row)
        columns = [f"i{j + 1}" for j in range(len(dims))] + ["x", "y", "z"]
        if grid.weights is not None:
            columns.append("weight")
        return export_table(np.array(rows), fmt, columns)

    @pytest.mark.parametrize(
        "name",
        ["torus_patch", "rational_trigonometric_patch", "trigonometric_volume_1",
         "hybrid_rational_volume"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_reference(self, capsys, tmp_path, name, fmt):
        spec = write_figure(tmp_path, name)
        code, out, err = run(capsys, "describe", "--spec", spec, "--format", fmt)
        assert code == 0 and err == ""
        assert out == self.reference(name, fmt)


class TestDescribeRational:
    def test_accepts_rational_spec(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "rational_hyperbolic_arc_a")
        code, out, _ = run(capsys, "describe-rational", "--spec", spec)
        assert code == 0
        _, columns = parse_table(out, "csv")
        assert columns[-1] == "weight"

    def test_rejects_plain_spec(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, _, err = run(capsys, "describe-rational", "--spec", spec)
        assert code == 2
        assert "rational = true" in err


class TestSample:
    def test_curve_table(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "10")
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns == ["u", "x", "y"]
        assert table.shape == (10, 3)
        assert table[-1, 0] == pytest.approx(3 * math.pi / 4, rel=1e-15)

    def test_curve_svg(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "quadrifolium")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "50",
                           "--format", "svg")
        assert code == 0
        assert out.startswith("<?xml") and out.count("<path") == 1

    def test_space_curve_obj(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_knot")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "30",
                           "--format", "obj")
        assert code == 0
        assert "\nl 1 2 3" in out

    def test_space_curve_svg_rejected(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_knot")
        code, _, err = run(capsys, "sample", "--spec", spec, "--format", "svg")
        assert code == 2
        assert "svg needs 2-d" in err

    def test_surface_lattice_table(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_patch")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "5")
        assert code == 0
        table, columns = parse_table(out, "csv")
        assert columns == ["u1", "u2", "x", "y", "z"]
        assert table.shape == (25, 5)

    def test_surface_obj(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_patch")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "5",
                           "--format", "obj")
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("f ")) == 16

    def test_derivative_of_samples(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "sample", "--spec", spec, "--samples", "9",
                           "--derivative", "1")
        assert code == 0
        table, _ = parse_table(out, "csv")
        # The hypocycloid starts with velocity 4 sqrt(3) in x and 0 in y.
        assert table[0, 1] == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)
        assert abs(table[0, 2]) < 1e-12

    @pytest.mark.parametrize("count", ["-1", "0", "1"])
    @pytest.mark.parametrize("figure", ["hypocycloid", "torus_patch"])
    def test_too_few_samples_exit_2(self, capsys, tmp_path, figure, count):
        spec = write_figure(tmp_path, figure)
        code, out, err = run(capsys, "sample", "--spec", spec, "--samples", count)
        assert code == 2 and out == ""
        assert err == f"error: --samples: need at least 2 samples, got {count}\n"


class TestSubdivide:
    def test_symmetric_split(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "subdivide", "--spec", spec, "--split-at", "3pi/8")
        assert code == 0
        payload = json.loads(out)
        assert payload["split_ratio"] == 0.5
        assert payload["left"]["interval"] == [0.0, 3 * math.pi / 8]
        assert len(payload["left"]["points"]) == 9
        assert len(payload["right"]["weights"]) == 9

    def test_boundary_split_exits_2(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, _, err = run(capsys, "subdivide", "--spec", spec, "--split-at", "0")
        assert code == 2
        assert "strictly inside" in err

    def test_surface_spec_exits_2(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "torus_patch")
        code, _, err = run(capsys, "subdivide", "--spec", spec, "--split-at", "1")
        assert code == 2
        assert "curve specs only" in err

    def test_csv_format_rejected_by_parser(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        with pytest.raises(SystemExit) as exc:
            main(["subdivide", "--spec", spec, "--split-at", "1", "--format", "csv"])
        assert exc.value.code == 2


class TestElevate:
    def test_default_target_is_one_step(self, capsys, tmp_path):
        spec_path = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "elevate", "--spec", spec_path)
        assert code == 0
        table, _ = parse_table(out, "csv")
        assert table.shape == (11, 2)
        doc = load_figure("hypocycloid")
        from chbez import elevate

        expected = elevate(exact_curve(doc.spec, 4), 1).points
        assert_allclose(table, expected, rtol=1e-14)

    def test_explicit_target(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, out, _ = run(capsys, "elevate", "--spec", spec, "--order", "7")
        assert code == 0
        table, _ = parse_table(out, "csv")
        assert table.shape == (15, 2)

    def test_default_target_follows_an_elevated_description(self, capsys, tmp_path):
        # The rational description of this curve reaches order 29 (minimum order 2).
        path = write_doc(tmp_path, "dip.json", _dip_denominator_doc())
        code, out, _ = run(capsys, "elevate", "--spec", path)
        assert code == 0
        table, _ = parse_table(out, "csv")
        assert table.shape == (2 * 30 + 1, 3)
        code, out29, _ = run(capsys, "elevate", "--spec", path, "--order", "29")
        assert code == 0
        assert parse_table(out29, "csv")[0].shape == (2 * 29 + 1, 3)
        code, out30, _ = run(capsys, "elevate", "--spec", path, "--order", "30")
        assert (code, out30) == (0, out)

    def test_target_below_minimum_exits_2(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "hypocycloid")
        code, _, err = run(capsys, "elevate", "--spec", spec, "--order", "3")
        assert code == 2
        assert "below the minimum" in err

    def test_svg_output(self, capsys, tmp_path):
        spec = write_figure(tmp_path, "quadrifolium")
        code, out, _ = run(capsys, "elevate", "--spec", spec, "--format", "svg")
        assert code == 0
        assert out.startswith("<?xml")


class TestGallery:
    def test_report_and_files(self, capsys, tmp_path):
        out_dir = tmp_path / "gallery"
        code, out, _ = run(capsys, "gallery", "--out", str(out_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert lines[0].startswith("hypocycloid: wrote hypocycloid.svg")
        assert "max reconstruction error" in lines[0]
        assert lines[-1] == f"15 artifacts in {out_dir}"
        assert (out_dir / "manifest.json").is_file()


class TestFailureModes:
    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "describe", "--spec", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_spec_reports_file_and_path(self, capsys, tmp_path):
        doc = {"version": 1, "type": "curve", "kind": "trigonometric", "alpha": 1.0,
               "coords": [], "comment": "x"}
        path = write_doc(tmp_path, "bad.json", doc)
        code, _, err = run(capsys, "describe", "--spec", path)
        assert code == 2
        assert "bad.json:comment" in err

    def test_nonpositive_denominator_exits_3(self, capsys, tmp_path):
        doc = rational_circle_doc([{"family": "sin", "k": 1, "a": 1.0}])
        path = write_doc(tmp_path, "vanishing.json", doc)
        code, _, err = run(capsys, "describe", "--spec", path)
        assert code == 3
        assert err.startswith("numerical failure:")

    def test_exhausted_budget_exits_3(self, capsys, tmp_path):
        d = math.cos(1.0)
        doc = rational_circle_doc(
            [
                {"family": "cos", "k": 0, "a": 0.55 + d * d},
                {"family": "cos", "k": 1, "a": -2.0 * d},
                {"family": "cos", "k": 2, "a": 0.5},
            ]
        )
        path = write_doc(tmp_path, "dip.json", doc)
        code, _, err = run(capsys, "describe", "--spec", path, "--max-elevations", "3")
        assert code == 3
        assert "after 3 elevation" in err
        code, _, _ = run(capsys, "describe", "--spec", path)
        assert code == 0

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


_REFUSED = "error: --derivative: not supported for rational specs\n"
_BAD_BUDGET = "error: --max-elevations: must be nonnegative, got -1\n"


def _too_many(count):
    return f"error: --samples: {count} samples do not fit in memory\n"


def _over_cap(order):
    return f"error: --order: {order} exceeds the order cap 32\n"


def _over_guard(product):
    return f"error: --order: hyperbolic n*alpha = {product} exceeds the overflow guard 300\n"


# command, figure, extra flags -> exit code and the whole of stderr.
FAILING_COMMANDS = [
    ("describe", "lemniscate", ["--derivative", "1"], 2, _REFUSED),
    ("sample", "lemniscate", ["--derivative", "1"], 2, _REFUSED),
    ("describe", "rational_trigonometric_patch", ["--derivative", "1"], 2, _REFUSED),
    ("sample", "rational_trigonometric_patch", ["--derivative", "1"], 2, _REFUSED),
    ("describe-rational", "lemniscate", ["--derivative", "1"], 2, _REFUSED),
    ("describe", "torus_patch", ["--format", "svg"], 2,
     "error: --format: svg is for planar curves only\n"),
    ("sample", "torus_patch", ["--format", "svg", "--samples", "5"], 2,
     "error: --format: svg is for planar curves only\n"),
    ("describe", "hypocycloid", ["--format", "obj"], 2,
     "error: --format: obj needs 3-d points\n"),
    ("sample", "hypocycloid", ["--format", "obj"], 2,
     "error: --format: obj needs 3-d samples\n"),
    ("describe", "torus_knot", ["--format", "svg"], 2,
     "error: --format: svg needs 2-d points\n"),
    ("sample", "torus_knot", ["--format", "svg"], 2,
     "error: --format: svg needs 2-d samples\n"),
    ("elevate", "torus_knot", ["--format", "svg"], 2,
     "error: --format: svg needs 2-d points\n"),
    # --order is read before --format, by elevate as by describe.
    ("elevate", "torus_knot", ["--format", "svg", "--order", "1,2"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("describe", "hypocycloid", ["--order", "3,4"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("sample", "lemniscate", ["--order", "2,2"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("elevate", "hypocycloid", ["--order", "3,4"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("subdivide", "hypocycloid", ["--order", "3,4", "--split-at", "1"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("describe", "torus_patch", ["--order", "3,4,5"], 2,
     "error: --order: expected 2 orders, got 3\n"),
    ("sample", "rational_trigonometric_patch", ["--order", "2,2,2"], 2,
     "error: --order: expected 2 orders, got 3\n"),
    # An order below the minimum names --order, for curves and patches alike.
    ("describe", "hypocycloid", ["--order", "0"], 2,
     "error: --order: order 0 below the curve's minimum order 4\n"),
    ("sample", "hypocycloid", ["--order", "3"], 2,
     "error: --order: order 3 below the curve's minimum order 4\n"),
    ("subdivide", "hypocycloid", ["--order", "0", "--split-at", "1"], 2,
     "error: --order: order 0 below the curve's minimum order 4\n"),
    ("describe", "lemniscate", ["--order", "0"], 2,
     "error: --order: order 0 below the curve's minimum order 2\n"),
    ("describe", "torus_patch", ["--order", "0"], 2,
     "error: --order: order 0 in direction 0 below the minimum 1\n"),
    ("describe", "torus_patch", ["--derivative", "1,1,1"], 2,
     "error: --derivative: expected 2 orders, got 3\n"),
    ("describe", "hypocycloid", ["--derivative", "1,1"], 2,
     "error: --derivative: expected 1 orders, got 2\n"),
    ("sample", "hypocycloid", ["--derivative=-1"], 2,
     "error: --derivative: orders must be nonnegative, got '-1'\n"),
    ("describe", "hypocycloid", ["--derivative", "1000"], 2,
     "error: --derivative: derivative order 1000 overflows: 4**1000 exceeds double range\n"),
    ("sample", "star_surface", ["--derivative", "400,0"], 2,
     "error: --derivative: derivative order 400 overflows: 6**400 exceeds double range\n"),
    ("describe", "hypocycloid", ["--derivative", str(10**400)], 2,
     f"error: --derivative: derivative order {10**400} overflows: 4**{10**400} exceeds double "
     "range\n"),
    ("subdivide", "torus_patch", ["--split-at", "1"], 2,
     "error: subdivide works on curve specs only\n"),
    ("elevate", "torus_patch", [], 2, "error: elevate works on curve specs only\n"),
    ("describe-rational", "hypocycloid", [], 2,
     "error: rational: describe-rational needs a spec with rational = true\n"),
    ("describe", "lemniscate", ["--max-elevations=-1"], 2, _BAD_BUDGET),
    ("describe-rational", "rational_trigonometric_patch", ["--max-elevations=-1"], 2,
     _BAD_BUDGET),
    ("sample", "hypocycloid", ["--max-elevations=-1"], 2, _BAD_BUDGET),
    ("elevate", "hypocycloid", ["--max-elevations=-1"], 2, _BAD_BUDGET),
    # Two faults: the order count is checked before the rational refusal, for
    # curves and patches alike.
    ("describe", "rational_trigonometric_patch", ["--order", "3,4,5", "--derivative", "1"],
     2, "error: --order: expected 2 orders, got 3\n"),
    ("describe", "lemniscate", ["--order", "3,4", "--derivative", "1"], 2,
     "error: --order: a curve takes one order, got 2\n"),
    ("describe", "lemniscate_tiny_denominator", [], 2,
     "error: coords[0]: control points overflow double precision\n"),
    # The rational description of this curve needs elevation from order 2 to 29.
    ("elevate", "lemniscate_dip_denominator", ["--order", "2"], 2,
     "error: --order: target 2 below the order 29 the rational description reached\n"),
    ("elevate", "lemniscate_dip_denominator", ["--order", "28"], 2,
     "error: --order: target 28 below the order 29 the rational description reached\n"),
    ("elevate", "hypocycloid", ["--order", "3"], 2,
     "error: --order: target 3 below the minimum order 4\n"),
    # The order cap, MAX_DEGREE // 2 = 32, named by the flag or the JSON path.
    ("describe", "hypocycloid", ["--order", "40"], 2, _over_cap(40)),
    ("sample", "lemniscate", ["--order", "33"], 2, _over_cap(33)),
    ("elevate", "hypocycloid", ["--order", "33"], 2, _over_cap(33)),
    ("elevate", "lemniscate_dip_denominator", ["--order", "40"], 2, _over_cap(40)),
    ("subdivide", "hypocycloid", ["--order", "33", "--split-at", "1"], 2, _over_cap(33)),
    ("describe", "torus_patch", ["--order", "3,40"], 2, _over_cap(40)),
    ("describe", "torus_patch", ["--order", "40"], 2, _over_cap(40)),
    ("describe", "torus_patch", ["--order", "40,40,40"], 2,
     "error: --order: expected 2 orders, got 3\n"),
    ("describe", "hypocycloid_k40", [], 2,
     "error: {spec}:coords[0].terms[0].k: 40 exceeds the order cap 32\n"),
    ("describe", "hypocycloid_huge_a", [], 2,
     "error: {spec}:coords[0].terms[0].a: must be finite, got inf\n"),
    ("elevate", "hypocycloid_k40", ["--order", "40"], 2,
     "error: {spec}:coords[0].terms[0].k: 40 exceeds the order cap 32\n"),
    # An order whose hyperbolic space trips the overflow guard names --order,
    # and so does the default elevation target; a term's frequency names its k.
    *[
        (command, "equilateral_hyperbola_alpha_12", ["--order", "26", *flags], 2, _over_guard(312))
        for command, flags in [("describe", []), ("sample", []), ("elevate", []),
                               ("subdivide", ["--split-at", "1"])]
    ],
    ("sample", "rational_hyperbolic_butterfly", ["--order", "32,32"], 2, _over_guard(320)),
    ("describe", "rational_hyperbolic_butterfly", ["--order", "31"], 2, _over_guard(310)),
    ("elevate", "equilateral_hyperbola_alpha_12_k25", [], 2, _over_guard(312)),
    ("describe", "equilateral_hyperbola_alpha_20_k20", [], 2,
     "error: {spec}:coords[1].terms[1].k: hyperbolic k*alpha = 400 exceeds the overflow "
     "guard 300\n"),
    # The rational repair loop stops at the overflow guard as at the cap: the
    # hyperbolic curve's weights need an order past 300 / alpha (and past the
    # cap 32 at alpha 3), and the patch's hyperbolic direction stops at order
    # 15 while its trigonometric one spends the rest of the budget.
    *[
        ("describe", f"guard_stop_alpha_{alpha}", [], 3,
         f"numerical failure: weights not positive after {steps} elevation(s)\n")
        for alpha, steps in [(3, 31), (12, 24), (20, 14)]
    ],
    ("describe", "guard_stop_hybrid_patch", [], 3,
     "numerical failure: weights not positive after 32 elevation(s)\n"),
    # Positive weights prove a denominator positive, and its samples name a dip only once
    # the description fails: one that dips between samples, and one that stays positive,
    # both keep weights that are not positive up to the cap.
    *[
        ("describe", figure, [], 3,
         "numerical failure: weights not positive after 12 elevation(s)\n")
        for figure in ("dip_between_samples", "positive_past_the_cap")
    ],
    # A denominator that dips at a sample is the refusal, whatever else fails.
    *[
        (command, figure, flags, 3,
         "numerical failure: denominator is not positive on [0, 2.0944] (fails near u = 0)\n")
        for command, figure, flags in [
            ("describe-rational", "lemniscate_negative_denominator", ["--order", "1"]),
            ("describe", "lemniscate_negative_denominator_huge_x", []),
            ("subdivide", "lemniscate_negative_denominator_huge_x", ["--split-at", "1"]),
            ("elevate", "lemniscate_negative_denominator", ["--order", "1"]),
        ]
    ],
    # --split-at is read before the document is described.
    ("subdivide", "lemniscate_negative_denominator", ["--split-at", "abc"], 2,
     "error: --split-at: cannot parse angle literal 'abc'\n"),
    # Described at the cap, a curve has no default elevation target.
    ("elevate", "hypocycloid_k32", [], 2,
     "error: --order: default target 33 exceeds the order cap 32\n"),
    ("subdivide", "hypocycloid", ["--split-at", "5"], 2,
     "error: --split-at: split parameter u0 = 5.0 must lie strictly inside (0, 2.35619)\n"),
    ("subdivide", "hypocycloid", ["--split-at", "0"], 2,
     "error: --split-at: split parameter u0 = 0.0 must lie strictly inside (0, 2.35619)\n"),
    # An interior split point whose share s(u0 / 2) underflows to 0: the left
    # piece would collapse to one point.
    ("subdivide", "equilateral_hyperbola_alpha_200", ["--split-at", "5e-324"], 3,
     "numerical failure: split ratio at u0 = 5e-324 rounds to 0\n"),
    # A subnormal s(u0 / 2): the left piece is too short for the basis of its interval.
    ("subdivide", "hypocycloid", ["--split-at", "1e-310"], 3,
     "numerical failure: split at u0 = 1e-310 leaves a piece too short for its basis\n"),
    # A net beyond double range: both pieces' points would be inf.
    ("subdivide", "equilateral_hyperbola_huge_y", ["--split-at", "128.9"], 3,
     "numerical failure: pieces overflow double precision while splitting at u0 = 128.9\n"),
    # A hyperbolic phase past about 710 overflows cosh and sinh, whatever the amplitude.
    ("describe", "equilateral_hyperbola_phase_800", [], 2,
     "error: coords[0]: control points overflow double precision\n"),
    # basis and xform read no spec (figure ""); a range error names the flag at
    # fault, and alpha is judged alone before the order.
    *[
        (command, "", flags, 2, stderr)
        for command in ("basis", "xform")
        for flags, stderr in [
            (["--kind", "trig", "--alpha", "1", "--order", "40"], _over_cap(40)),
            (["--kind", "trig", "--alpha", "1", "--order", "0"],
             "error: --order: order n must be >= 1, got 0\n"),
            (["--kind", "trig", "--alpha", "4", "--order", "3"],
             "error: --alpha: trigonometric alpha must lie in (0, pi), got 4.0\n"),
            (["--kind", "hyp", "--alpha", "0", "--order", "3"],
             "error: --alpha: alpha must be positive and finite, got 0.0\n"),
            (["--kind", "hyp", "--alpha", "20", "--order", "20"],
             "error: --order: hyperbolic n*alpha = 400 exceeds the overflow guard 300\n"),
        ]
    ],
    # A valid alpha whose s(alpha / 2) is not a normal double: the basis table
    # would divide by it.
    *[
        ("basis", "", ["--kind", kind, "--alpha", "1e-320", "--order", "3"], 2,
         f"error: --alpha: alpha = 1e-320 too small: {name}(alpha/2) is not a normal double\n")
        for kind, name in [("trig", "sin"), ("hyp", "sinh")]
    ],
    ("describe", "hypocycloid", ["--order", "abc"], 2,
     "error: --order: expected an integer or comma list, got 'abc'\n"),
    ("describe", "torus_patch", ["--derivative", "1,x"], 2,
     "error: --derivative: expected an integer or comma list, got '1,x'\n"),
    # The file boundary: an unwritable --out and an unreadable or too deep
    # --spec end in one error line, not a traceback.
    ("describe", "hypocycloid", ["--out", "/nonexistent/dir/x.csv"], 2,
     "error: --out: cannot write /nonexistent/dir/x.csv (No such file or directory)\n"),
    ("gallery", "", ["--out", "/dev/null/sub"], 2,
     "error: --out: cannot write /dev/null/sub (Not a directory)\n"),
    ("describe", "utf16_bom", [], 2, "error: --spec: cannot read {spec} ('utf-8' codec can't "
     "decode byte 0xff in position 0: invalid start byte)\n"),
    ("sample", "nested_5000_deep", [], 2, "error: {spec}: not valid JSON (nested too deeply)\n"),
    # More samples than one array can index, refused before anything is
    # allocated: per direction, or (a volume) on the lattice of three axes.
    ("basis", "", ["--kind", "trig", "--alpha", "1", "--order", "2", "--samples", str(10**20)], 2,
     _too_many(10**20)),
    *[
        ("sample", figure, ["--samples", str(10**20)], 2, _too_many(10**20))
        for figure in ("hypocycloid", "torus_patch", "trigonometric_volume_1")
    ],
    ("sample", "trigonometric_volume_1", ["--samples", "1100000"], 2, _too_many(1100000)),
]


def _tiny_denominator_doc() -> dict:
    """lemniscate.json with its denominator amplitudes multiplied by 1e-320."""
    doc = json.loads(load_figure_text("lemniscate"))
    for term in doc["coords"][-1]["terms"]:
        term["a"] *= 1e-320
    return doc


def _dip_denominator_doc() -> dict:
    """lemniscate.json at alpha = 3 with the denominator 1.05 - cos(u - 1.5)."""
    doc = json.loads(load_figure_text("lemniscate"))
    doc["alpha"] = 3.0
    doc["coords"][-1]["terms"] = [
        {"family": "cos", "k": 0, "a": 1.05},
        {"family": "cos", "k": 1, "a": -1.0, "phase": -1.5},
    ]
    return doc


def _negative_denominator_doc(huge_x: bool = False) -> dict:
    """lemniscate.json over 0.3 - 0.5 cos(2 u), which is -0.2 at u = 0.

    With ``huge_x`` its x is 2e308 cos u, written as two terms, whose control points overflow.
    """
    doc = json.loads(load_figure_text("lemniscate"))
    doc["coords"][-1]["terms"][0]["a"] = 0.3
    if huge_x:
        doc["coords"][0]["terms"] = [{"family": "cos", "k": 1, "a": 1e308}] * 2
    return doc


def _narrow_denominator_doc(lift: float) -> dict:
    """x = cos u on [0, 2.5] over lift - cos(20 (u - 1.2345678)), lowest at lift - 1.

    At lift 1 - 1e-6 it dips below 0 between the 1001 samples, at 1 + 1e-3 it stays positive.
    """
    wave = {"family": "cos", "k": 20, "a": -1, "phase": -20 * 1.2345678}
    return {"version": 1, "type": "curve", "kind": "trigonometric", "alpha": 2.5,
            "rational": True, "coords": [{"terms": [{"family": "cos", "k": 1, "a": 1}]},
                                         {"terms": [{"family": "cos", "k": 0, "a": lift}, wave]}]}


def _k40_doc() -> dict:
    """hypocycloid.json with the frequency of its first term set to 40."""
    doc = json.loads(load_figure_text("hypocycloid"))
    doc["coords"][0]["terms"][0]["k"] = 40
    return doc


def _huge_a_doc() -> dict:
    """hypocycloid.json with the amplitude of its first term set to the integer 10**400."""
    doc = json.loads(load_figure_text("hypocycloid"))
    doc["coords"][0]["terms"][0]["a"] = 10**400
    return doc


def _k32_doc() -> dict:
    """hypocycloid.json with the frequency of its first term set to 32, the order cap."""
    doc = json.loads(load_figure_text("hypocycloid"))
    doc["coords"][0]["terms"][0]["k"] = 32
    return doc


def _alpha_200_doc() -> dict:
    """equilateral_hyperbola.json (order 1) with alpha set to 200."""
    doc = json.loads(load_figure_text("equilateral_hyperbola"))
    doc["alpha"] = 200
    return doc


def _k32_tiny_alpha_doc() -> dict:
    """hypocycloid.json with its first frequency set to 32 and alpha set to 1e-5."""
    doc = _k32_doc()
    doc["alpha"] = 1e-5
    return doc


def _alpha_12_doc(k: int = 1) -> dict:
    """equilateral_hyperbola.json with alpha set to 12 and its first frequency set to ``k``."""
    doc = json.loads(load_figure_text("equilateral_hyperbola"))
    doc["alpha"] = 12
    doc["coords"][0]["terms"][0]["k"] = k
    return doc


def _alpha_20_k20_doc() -> dict:
    """equilateral_hyperbola.json at alpha = 20 with a term cosh(20 u) added to its y."""
    doc = json.loads(load_figure_text("equilateral_hyperbola"))
    doc["alpha"] = 20
    doc["coords"][1]["terms"].append({"family": "cosh", "k": 20, "a": 1})
    return doc


def _huge_y_doc() -> dict:
    """equilateral_hyperbola.json at alpha = 139.09 with y the constant 2.8e299."""
    doc = _alpha_12_doc()
    doc["alpha"] = 139.09
    doc["coords"][1]["terms"] = [{"family": "cosh", "k": 0, "a": 2.8e299}]
    return doc


def _phase_800_doc() -> dict:
    """equilateral_hyperbola.json at alpha = 1 with x = cosh(u + 800)."""
    doc = _alpha_12_doc()
    doc["alpha"] = 1
    doc["coords"][0]["terms"] = [{"family": "cosh", "k": 1, "a": 1, "phase": 800}]
    return doc


def _guard_stop_doc(alpha: float) -> dict:
    """equilateral_hyperbola.json at ``alpha``, without phases, over -0.999 + cosh(u - alpha/2)."""
    doc = json.loads(load_figure_text("equilateral_hyperbola"))
    doc["alpha"], doc["rational"] = alpha, True
    for coord in doc["coords"]:
        del coord["terms"][0]["phase"]
    doc["coords"].append({"terms": [{"family": "cosh", "k": 0, "a": -0.999},
                                    {"family": "cosh", "k": 1, "a": 1, "phase": -alpha / 2}]})
    return doc


def _guard_stop_patch_doc() -> dict:
    """The alpha 20 guard-stop curve along a hyperbolic u1, times 1 along a trigonometric u2."""
    curve = _guard_stop_doc(20)
    one = {"terms": [{"family": "cos", "k": 0, "a": 1}]}
    return {
        "version": 1,
        "type": "surface",
        "directions": [{"kind": "hyperbolic", "alpha": 20},
                       {"kind": "trigonometric", "alpha": 1}],
        "rational": True,
        "coords": [{"summands": [{"factors": [coord, one]}]} for coord in curve["coords"]],
    }


# Documents derived from a bundled figure, by the name FAILING_COMMANDS gives them.
DERIVED_DOCS = {
    "hypocycloid_k32_tiny_alpha": _k32_tiny_alpha_doc,
    "hypocycloid_k32": _k32_doc,
    "lemniscate_tiny_denominator": _tiny_denominator_doc,
    "lemniscate_dip_denominator": _dip_denominator_doc,
    "lemniscate_negative_denominator": _negative_denominator_doc,
    "lemniscate_negative_denominator_huge_x": lambda: _negative_denominator_doc(huge_x=True),
    "dip_between_samples": lambda: _narrow_denominator_doc(1 - 1e-6),
    "positive_past_the_cap": lambda: _narrow_denominator_doc(1 + 1e-3),
    "hypocycloid_k40": _k40_doc,
    "hypocycloid_huge_a": _huge_a_doc,
    "equilateral_hyperbola_alpha_200": _alpha_200_doc,
    "equilateral_hyperbola_alpha_12": _alpha_12_doc,
    "equilateral_hyperbola_alpha_12_k25": lambda: _alpha_12_doc(25),
    "equilateral_hyperbola_alpha_20_k20": _alpha_20_k20_doc,
    **{f"guard_stop_alpha_{alpha}": lambda alpha=alpha: _guard_stop_doc(alpha)
       for alpha in (3, 12, 20)},
    "guard_stop_hybrid_patch": _guard_stop_patch_doc,
    "equilateral_hyperbola_huge_y": _huge_y_doc,
    "equilateral_hyperbola_phase_800": _phase_800_doc,
}


# Spec files, by the name FAILING_COMMANDS gives them, whose bytes no JSON document dumps to.
RAW_SPECS = {
    "utf16_bom": b"\xff\xfe{}",
    "nested_5000_deep": b"[" * 5000 + b"]" * 5000,
}


@pytest.mark.parametrize(
    "command, figure, flags, code, stderr",
    FAILING_COMMANDS,
    ids=[" ".join([c, f, *fl]) for c, f, fl, _, _ in FAILING_COMMANDS],
)
def test_failing_command(capsys, tmp_path, command, figure, flags, code, stderr):
    if not figure:
        assert run(capsys, command, *flags) == (code, "", stderr)
        return
    path = spec_path(tmp_path, figure)
    stderr = stderr.replace("{spec}", path)  # a spec error names the file first
    assert run(capsys, command, "--spec", path, *flags) == (code, "", stderr)


def spec_path(tmp_path, figure: str) -> str:
    """The path of a bundled figure, or of a document of DERIVED_DOCS or RAW_SPECS written out."""
    if figure in DERIVED_DOCS:
        return write_doc(tmp_path, f"{figure}.json", DERIVED_DOCS[figure]())
    if figure in RAW_SPECS:
        path = tmp_path / f"{figure}.json"
        path.write_bytes(RAW_SPECS[figure])
        return str(path)
    return str(Path(chbez.__file__).parent / "figures" / f"{figure}.json")


# Two faults on the flags that describe, sample, subdivide and elevate share, and whether
# elevate, whose --order is a target, words the first refusal with a noun of its own.
FAULT_PAIRS = [
    ("hypocycloid_huge_a", ["--order", "3,4"], False),  # the document, then the count
    ("hypocycloid_huge_a", ["--max-elevations=-1"], False),  # --max-elevations, then the document
    ("equilateral_hyperbola_alpha_12", ["--order", "26", "--max-elevations=-1"], False),
    ("lemniscate_negative_denominator", ["--order", "1,2"], False),  # the count, then the dip
    ("lemniscate_negative_denominator", ["--order", "40"], False),  # the cap, then the dip
    ("lemniscate_negative_denominator", ["--order", "1"], False),  # the dip, then the minimum
    ("hypocycloid", ["--order", "3", "--out", "/nonexistent/dir/x.csv"], True),  # the minimum
    ("equilateral_hyperbola_alpha_12", ["--order", "26", "--out", "/nonexistent/dir/x"], False),
]
SHARED_FRONT_END = {"describe": [], "sample": [], "subdivide": ["--split-at", "1"], "elevate": []}


@pytest.mark.parametrize("figure, flags, noun", FAULT_PAIRS,
                         ids=[" ".join([f, *fl]) for f, fl, _ in FAULT_PAIRS])
def test_commands_refuse_the_same_fault_first(capsys, tmp_path, figure, flags, noun):
    path = spec_path(tmp_path, figure)
    results = {command: run(capsys, command, "--spec", path, *flags, *extra)
               for command, extra in SHARED_FRONT_END.items()}
    code, out, stderr = results["describe"]
    assert code in (2, 3) and out == ""
    for command, result in results.items():
        if noun and command == "elevate":  # the exit code and the flag named
            assert result[:2] == (code, "")
            assert result[2].split(": ")[:2] == stderr.split(": ")[:2] and result[2] != stderr
        else:
            assert result == (code, "", stderr), command


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "target, argv",
    [
        ("chbez.cli.basis_matrix", ["basis", "--kind", "hyp", "--alpha", "1", "--order", "3"]),
        *[
            ("chbez.surface._sampled", ["sample", "--spec", figure])
            for figure in ("hypocycloid", "torus_patch", "trigonometric_volume_1")
        ],
    ],
)
def test_samples_out_of_memory_name_the_flag(capsys, monkeypatch, target, argv):
    """A MemoryError from the table or lattice allocation is refused like a count too large."""
    monkeypatch.setattr(target, _out_of_memory)
    if argv[0] == "sample":
        argv = [*argv[:-1], str(Path(chbez.__file__).parent / "figures" / f"{argv[-1]}.json")]
    assert run(capsys, *argv) == (2, "", _too_many(200))


@pytest.mark.parametrize(
    "target, argv",
    [
        ("chbez.exact._describe", ["describe", "--spec", "torus_patch"]),
        ("chbez.exact._describe", ["sample", "--spec", "torus_patch"]),  # before sampling begins
        ("chbez._pure.table", ["describe-rational", "--spec", "lemniscate"]),
        ("chbez._pure.elevate", ["elevate", "--spec", "hypocycloid"]),
        ("chbez._pure.subdivide", ["subdivide", "--spec", "hypocycloid", "--split-at", "1"]),
    ],
)
def test_net_out_of_memory_names_the_order(capsys, monkeypatch, target, argv):
    """A MemoryError while a control net is described or written is refused at --order."""
    monkeypatch.setattr(target, _out_of_memory)
    argv[2] = str(Path(chbez.__file__).parent / "figures" / f"{argv[2]}.json")
    assert run(capsys, *argv) == (2, "", "error: --order: the control net does not fit in memory\n")


class _FullStream:
    """A stdout on a full disk, whose ``fails`` method ("write" or "flush") raises ENOSPC."""

    def __init__(self, fails):
        self.fails = fails

    def _call(self, name, result=None):
        if name == self.fails:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return result

    def write(self, text):
        return self._call("write", len(text))

    def flush(self):
        self._call("flush")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_unwritable_stdout_is_a_validation_error(capsys, monkeypatch, fails):
    monkeypatch.setattr(sys, "stdout", _FullStream(fails))
    code = main(["basis", "--kind", "trig", "--alpha", "1", "--order", "3", "--samples", "5"])
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: stdout: cannot write (No space left on device)\n")


def test_derivative_scale_is_judged_per_direction(capsys):
    # star_surface's second direction has frequency 1, whose powers never overflow.
    path = str(Path(chbez.__file__).parent / "figures" / "star_surface.json")
    code, out, err = run(capsys, "describe", "--spec", path, "--derivative", "0,1100")
    assert (code, err) == (0, "")
    assert out.startswith("i1,i2,x,y,z\n")


@pytest.mark.parametrize("command", ["describe", "sample"])
def test_derivative_past_float_range_turns_the_phase_by_whole_turns(capsys, tmp_path, command):
    # Each derivative of cos u and sin u turns the phase a quarter: 10**400 of them, whole turns.
    doc = {"version": 1, "type": "curve", "kind": "trigonometric", "alpha": 2,
           "coords": [{"terms": [{"family": "cos", "k": 1, "a": 1}]},
                      {"terms": [{"family": "sin", "k": 1, "a": 1}]}]}
    path = write_doc(tmp_path, "circle.json", doc)
    underived = run(capsys, command, "--spec", path, "--derivative", "0")
    assert underived[0] == 0
    assert run(capsys, command, "--spec", path, "--derivative", str(10**400)) == underived


def _unreachable(*args, **kwargs):
    raise AssertionError("reached after a refusable --format")


# command, figure, extra flags -> stderr; each refusal follows from the spec alone.
FORMAT_REFUSALS = [
    ("sample", "hypocycloid", ["--format", "obj", "--samples", "2000000"],
     "error: --format: obj needs 3-d samples\n"),
    ("sample", "torus_knot", ["--format", "svg", "--samples", "2000000"],
     "error: --format: svg needs 2-d samples\n"),
    ("sample", "rational_hyperbolic_arc_a", ["--format", "obj"],
     "error: --format: obj needs 3-d samples\n"),
    ("sample", "star_surface", ["--format", "svg"],
     "error: --format: svg is for planar curves only\n"),
    ("describe", "hypocycloid", ["--format", "obj"], "error: --format: obj needs 3-d points\n"),
    ("describe", "torus_knot", ["--format", "svg"], "error: --format: svg needs 2-d points\n"),
    ("describe-rational", "rational_hyperbolic_arc_b", ["--format", "obj"],
     "error: --format: obj needs 3-d points\n"),
    ("elevate", "torus_knot", ["--format", "svg"], "error: --format: svg needs 2-d points\n"),
]  # fmt: skip


@pytest.mark.parametrize(
    "command,figure,flags,stderr",
    FORMAT_REFUSALS,
    ids=[" ".join([c, f, *fl]) for c, f, fl, _ in FORMAT_REFUSALS],
)
def test_format_refused_before_describing(capsys, monkeypatch, command, figure, flags, stderr):
    from chbez import exact, surface

    monkeypatch.setattr(surface, "_sampled", _unreachable)
    monkeypatch.setattr(exact, "_describe", _unreachable)
    path = Path(chbez.__file__).parent / "figures" / f"{figure}.json"
    assert run(capsys, command, "--spec", str(path), *flags) == (2, "", stderr)


def _overflowing_doc(figure: str) -> dict:
    """The figure with every amplitude of its first coordinate's first factor set to 1e308."""
    doc = json.loads(load_figure_text(figure))
    coord = doc["coords"][0]
    for term in (coord["summands"][0]["factors"][0] if "summands" in coord else coord)["terms"]:
        term["a"] = 1e308
    return doc


@pytest.mark.parametrize("figure", ["trigonometric_volume_1", "hypocycloid", "torus_patch"])
@pytest.mark.parametrize("command", ["describe", "sample"])
def test_overflowing_coordinate_is_named(capsys, tmp_path, figure, command):
    # pytest turns a RuntimeWarning into an error, so none may be emitted either.
    path = write_doc(tmp_path, "huge.json", _overflowing_doc(figure))
    code, out, err = run(capsys, command, "--spec", path)
    assert (code, out, err) == (2, "", "error: coords[0]: control points overflow double precision\n")


def test_xform_needs_no_normalizing_coefficients(capsys):
    # At these flags the normalizing coefficients overflow; basis needs them no
    # more either (test_basis_at_tiny_alpha_and_the_order_cap).
    code, out, err = run(capsys, "xform", "--kind", "trig", "--alpha", "1e-5", "--order", "32")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 65


# Commands refused while the basis tables and the split read the normalizing
# coefficients, which overflow at alpha 1e-5, order 32, or while the split
# ratio came from tanh, which rounded it to 0 at alpha 200, u0 = 10.  Their
# values are checked against the traditional form within 4 (2n + 1) eps of
# the largest value.


@pytest.mark.parametrize("kind", [BasisKind.TRIGONOMETRIC, BasisKind.HYPERBOLIC],
                         ids=lambda k: k.value)
def test_basis_at_tiny_alpha_and_the_order_cap(capsys, kind):
    code, out, err = run(capsys, "basis", "--kind", kind.value, "--alpha", "1e-5",
                         "--order", "32", "--samples", "3")
    assert (code, err) == (0, "")
    table, _ = parse_table(out, "csv")
    expected = oracle_basis(BasisSpace(kind, 32, 1e-5), table[:, 0])
    assert np.max(np.abs(table[:, 1:] - expected)) <= 4 * 65 * EPS


def traditional_error(spec, us, values) -> float:
    """Largest deviation of ``values`` from the spec's coordinate functions, relative to them."""
    direct = np.stack([c.values(spec.kind, us) for c in spec.coords], axis=1)
    return np.max(np.abs(values - direct)) / np.max(np.abs(direct))


def test_sample_at_tiny_alpha_and_the_order_cap(capsys, tmp_path):
    doc = _k32_tiny_alpha_doc()
    code, out, err = run(capsys, "sample", "--spec", write_doc(tmp_path, "k32.json", doc),
                         "--samples", "201")
    assert (code, err) == (0, "")
    table, _ = parse_table(out, "csv")
    spec = parse_document(json.dumps(doc)).spec
    assert traditional_error(spec, table[:, 0], table[:, 1:]) <= 4 * 65 * EPS


@pytest.mark.parametrize("figure, u0", [("hypocycloid_k32_tiny_alpha", "5e-6"),
                                        ("equilateral_hyperbola_alpha_200", "10")])
def test_subdivide_formerly_refused(capsys, tmp_path, figure, u0):
    doc = DERIVED_DOCS[figure]()
    path = write_doc(tmp_path, f"{figure}.json", doc)
    code, out, err = run(capsys, "subdivide", "--spec", path, "--split-at", u0)
    assert (code, err) == (0, "")
    spec = parse_document(json.dumps(doc)).spec
    payload = json.loads(out)
    for side in ("left", "right"):
        piece = payload[side]
        space = BasisSpace(spec.kind, (len(piece["points"]) - 1) // 2, spec.alpha)
        bezier = BezierPiece(space, np.array(piece["points"]), np.array(piece["weights"]),
                             tuple(piece["interval"]))
        assert piece["weights"][0 if side == "left" else -1] == 1.0
        us = np.linspace(*piece["interval"], 101)
        bound = 4 * space.dimension * EPS
        assert traditional_error(spec, us, bezier.evaluate(us)) <= bound


def test_describe_names_coordinates_beyond_three(capsys, tmp_path):
    doc = json.loads(load_figure_text("hypocycloid"))
    doc["coords"] += doc["coords"]
    code, out, err = run(capsys, "describe", "--spec", write_doc(tmp_path, "c4.json", doc))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "c1,c2,c3,c4"
