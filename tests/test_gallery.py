"""Tests for the bundled figure gallery."""

import json

import numpy as np
import pytest

from chbez import (
    RangeError,
    figure_names,
    load_figure_text,
    reconstruction_error,
    render_figure,
    run_gallery,
)

EXPECTED_SUFFIX = {
    "hypocycloid": "svg",
    "quadrifolium": "svg",
    "torus_knot": "obj",
    "lemniscate": "svg",
    "equilateral_hyperbola": "svg",
    "rational_hyperbolic_arc_a": "svg",
    "rational_hyperbolic_arc_b": "svg",
    "torus_patch": "obj",
    "star_surface": "obj",
    "trigonometric_volume_1": "obj",
    "trigonometric_volume_2": "obj",
    "rational_trigonometric_patch": "obj",
    "hyperboloidal_patch": "obj",
    "rational_hyperbolic_butterfly": "obj",
    "hybrid_rational_volume": "obj",
}


class TestReconstructionError:
    def test_frozen_value(self):
        recon = np.array([[1.0, 2.0]])
        direct = np.array([[1.1, 2.0]])
        assert reconstruction_error(recon, direct) == pytest.approx(0.1 / 3.0, rel=1e-12)

    def test_zero_for_identical(self):
        data = np.random.default_rng(0).random((10, 3))
        assert reconstruction_error(data, data) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(RangeError, match="shape mismatch"):
            reconstruction_error(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRenderFigure:
    def test_names_match_expected_set(self):
        assert figure_names() == tuple(EXPECTED_SUFFIX)

    @pytest.mark.parametrize("name", sorted(EXPECTED_SUFFIX))
    def test_figure_renders_accurately(self, name):
        rendered = render_figure(name)
        assert rendered.suffix == EXPECTED_SUFFIX[name]
        assert rendered.error < 1e-8
        head = rendered.artifact.lstrip().split(None, 1)[0]
        assert head in ("<?xml", "g")


class TestRunGallery:
    def test_writes_manifest_and_artifacts(self, tmp_path):
        out = tmp_path / "gallery"
        entries = run_gallery(out)
        assert len(entries) == 15
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["figure"] for e in manifest["figures"]] == list(figure_names())
        for entry in manifest["figures"]:
            assert (out / entry["output"]).is_file()
            assert (out / entry["spec"]).is_file()
            assert entry["error"] < 1e-8
            assert (out / entry["spec"]).read_text() == load_figure_text(entry["figure"])

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_gallery(first)
        run_gallery(second)
        names = sorted(p.name for p in first.iterdir() if p.is_file())
        assert names == sorted(p.name for p in second.iterdir() if p.is_file())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_reads_each_figure_once(self, tmp_path, monkeypatch):
        import chbez.gallery

        reads = []
        monkeypatch.setattr(chbez.gallery, "load_figure_text",
                            lambda name: reads.append(name) or load_figure_text(name))
        run_gallery(tmp_path)
        assert reads == list(figure_names())

    def test_artifacts_match_render_figure(self, tmp_path):
        entries = run_gallery(tmp_path)
        for entry in entries[:4] + entries[-2:]:
            rendered = render_figure(entry["figure"])
            assert (tmp_path / entry["output"]).read_text() == rendered.artifact
            assert entry["error"] == rendered.error
