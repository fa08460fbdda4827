"""The exporters' repr path: small documents printed row by row through ``repr`` and ``%d``.

``chbez.io._format_rows`` prints a document of fewer than ``_VECTOR_CELLS``
cells through ``repr`` and ``%d``, and a larger one through
``chbez._vectorized``.  Here every export takes the repr path, whatever its
size: the reference-exporter cases of tests/test_io_exact_bytes.py run
again, and small documents of every awkward value print the same bytes on
both paths.
"""

import math

import numpy as np
import pytest

import chbez._vectorized
import chbez.io
from chbez import SvgPath, export_svg
from chbez._vectorized import format_rows
from test_io_exact_bytes import (  # noqa: F401 (the classes run again here)
    NANS,
    NOTATION_SWITCHES,
    SUBNORMALS,
    TestMixedNotationBlocks,
    TestObjBytes,
    TestRepeatedValues,
    TestSvgBytes,
    TestTableBytes,
    assert_same,
    ref_export_svg,
)


@pytest.fixture(autouse=True)
def repr_path(monkeypatch):
    """Every export prints through repr, however many its cells; the vectorized entry refuses."""

    def refuse(items):
        raise AssertionError("the repr path called the vectorized formatter")

    monkeypatch.setattr(chbez.io, "_VECTOR_CELLS", math.inf)
    monkeypatch.setattr(chbez._vectorized, "format_rows", refuse)


FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 1.0 / 3.0, -2.5e-7, 1e300],
    NANS, -NANS, SUBNORMALS, -SUBNORMALS, NOTATION_SWITCHES, -NOTATION_SWITCHES,
])
INTEGERS = np.array([0, 1, 9, -1, -10, -(2**63), 10**15, 10**17 - 1, 10**17, 10**18 + 7, 2**63 - 1])
LABEL = "é ∞ 😀 \udcff 100%"  # two-, three- and four-byte UTF-8, a lone surrogate and a %


def documents():
    """Small documents of literals and tables that hold the awkward values between them."""
    floats, ints = FLOATS.reshape(-1, 3), INTEGERS[:, None]
    yield [LABEL, (("", "\n"), FLOATS[:, None]), "tail"]
    faces = np.resize(INTEGERS, (6, 2))
    yield ["g x\n", (("v ", " ", " ", "\n"), floats), (("f ", " ", "\n"), faces)]
    yield [(("<", f" {LABEL} ", ",", ",", ">\n"), floats, np.arange(len(floats))[:, None])]
    yield [(("[", "%d ", "]\n"), FLOATS[:11, None], ints), ((";",), np.zeros((3, 0))), LABEL]
    yield [(("", ",", "\n"), np.zeros((0, 2))), (("l", ""), ints[:0]), "", ((LABEL,), ints[:, :0])]


@pytest.mark.parametrize("items", documents())
def test_both_paths_print_the_same_bytes(items):
    assert "".join(chbez.io._format_rows(items)) == "".join(format_rows(items))


def test_non_ascii_labels_print_as_the_reference_does():
    pts = np.resize(FLOATS[np.isfinite(FLOATS)], (12, 2))
    paths = [SvgPath(pts, "polygon", LABEL), SvgPath(pts[::-1], "curve")]
    assert_same(ref_export_svg, export_svg, paths)
