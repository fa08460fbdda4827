"""Spec documents and deterministic exporters.

Curves and patches enter the package as JSON documents listing their
traditional-form terms; see ``docs/formats.md`` for the schema.  Validation
is strict: unknown fields are rejected and every error message carries the
JSON path of the offending field.

All exporters are plain functions from data to text.  Floats are printed
exactly as ``repr`` prints them: the shortest decimal ``d`` that parses
back to the identical double, in fixed form when its decimal-point
position ``p`` (``d = 0.d1d2... * 10**p``) has ``-4 < p <= 16``, that is
``1e-4 <= |d| < 1e16``, and in exponent form otherwise.  That makes every
export byte-deterministic and round-trippable.

Each exporter writes its rows (CSV lines, OBJ records, SVG path points
and markers) and the literal text between them with one call of one
formatter, :func:`_format_rows`.  It prints finite floats, in either
form, and integer ids with numpy integer arithmetic on blocks of cells,
the digits from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; :func:`_shortest`); the other values (``nan``, ``inf``,
``-inf``) still go through ``repr``.
"""

from __future__ import annotations

import json
import math
import re
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from . import _exports
from ._record import record
from .bbasis import _MAX_ORDER, BasisKind, _is_count
from .errors import RangeError, SpecError

if TYPE_CHECKING:  # the parsers import the spec types when they first run
    from .exact import CoordinateFunction, CurveSpec, Term
    from .surface import SurfaceSpec

__all__ = _exports(__name__)

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")

# Term family names per kind: the cosine-like one, then the sine-like one.
_FAMILY_NAMES = {
    BasisKind.TRIGONOMETRIC: ("cos", "sin"),
    BasisKind.HYPERBOLIC: ("cosh", "sinh"),
}

_KINDS = {kind.value: kind for kind in BasisKind}


def parse_angle(text: str) -> float:
    """Parse an angle literal: a decimal number or a multiple of pi.

    Accepted pi forms look like ``pi``, ``pi/2``, ``2pi/3``, ``-5pi/3``;
    the value is computed as ``sign * coefficient * pi / divisor`` so the
    usual fractions of pi come out bit-identical with writing the same
    expression in code.
    """
    text = text.strip()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise RangeError(f"zero divisor in angle literal {text!r}")
        return sign * coeff * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise RangeError(f"cannot parse angle literal {text!r}") from None


def format_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same double."""
    return repr(float(x))


# Cells per block of :func:`_format_rows`.  A block's numpy scratch peaks at
# about 200 bytes per cell, 1.2 MB, within a 2 MB L2 cache; smaller blocks
# pay the fixed cost of some 200 numpy calls per block more often.
_BLOCK_CELLS = 6144

_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)


@cache
def _tables():
    """Constant tables of the row formatter, built on its first use rather than at import.

    ``g``: the Schubfach multipliers ``floor(10**e * 2**(127 - floor(e * log2(10)))) + 1``,
    each in ``[2**127, 2**128)``, for ``e = -292..324``, as high and low words;
    ``pow10``: ``10**0 .. 10**17``.  By a float field's decimal-point position
    plus 340: ``form``, its key base ``18 * form + 1`` (plus ``18 * 22`` more
    when negative, from index 680 on), and ``exponents``, the last word of its
    mask, holding the exponent, if any, at bytes 19-23.  By the key
    ``18 * form + digits`` of a field (see :func:`_fields`): ``shifts``, the
    bit offsets of its head and tail text, and ``masks``, the words of its
    head, tail and character masks.
    """
    tens = np.cumprod([1] + [10] * 324, dtype=object).tolist()
    g = [(tens[e] << 127 >> ((e * 1741647) >> 19) if e >= 0
          else (1 << 127 - ((e * 1741647) >> 19)) // tens[-e]) + 1 for e in range(-292, 325)]
    split = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in g), "<u8").reshape(-1, 2)
    p = np.arange(-340, 340)
    form = np.where((p > 0) & (p <= 16), p - 1, np.where((p <= 0) & (p > -4), 16 - p, 20))
    size = np.abs(p - 1).astype(_U64)  # "e-" or "e+", at least two digits
    exponents = _ascii8(size) >> _U64(40) << _U64(16) | np.where(p < 1, _U64(0x2D65), _U64(0x2B65))
    exponents |= (size < _U64(100)) * _U64(0xFF0000)
    exponents = np.where(form < 20, ~_U64(0), exponents << _U64(24) | _U64(0xFFFFFF))
    # Forms 0-15: fixed with 1 to 16 integer digits; 16-19: fixed below 1 with 0 to
    # 3 zeros after the point; 20: exponent form; 21: an integer.  The head and
    # the tail text have ASCII zeros below their first digit.
    key = np.arange(2 * 22 * 18)
    neg, f, j = key // 396, key // 18 % 22, key % 18
    p, o = np.where(f < 16, f + 1, 16 - f), neg * (f < 21)  # o: 1 after a sign

    def by_form(fixed, below, sci, whole):  # in bytes from o
        return np.where(f < 16, fixed, np.where(f < 20, below, np.where(f == 20, sci, whole))) + o

    byte = np.arange(24)[:, None]
    masks = np.empty((3, 24, len(key)), np.uint8)  # head, tail and character masks
    masks[0] = np.where((byte < o) | (byte >= by_form(p, 1, 1, j)), 0xFF, 0)
    start, end = by_form(p + 1, 2, 2, 0), by_form(np.maximum(j, p + 1) + 1, 2 - p + j, j + 1, 0)
    masks[1] = np.where((byte < start) | (byte >= end), 0xFF, 0)
    masks[2] = np.where(byte == by_form(p, 1, np.where(j > 1, 1, -99), -99), 0x2E, 0xFF)
    masks[2, 0] = np.where(o > 0, 0x2D, masks[2, 0])
    return (split.T[::-1], np.array(tens[:18], dtype=_U64), (form + [[0], [22]]).ravel() * 18 + 1,
            exponents, (8 * np.stack([by_form(0, 1, 0, 0), by_form(1, 2 - p, 1, 0)])).astype(_U64),
            masks.transpose(0, 2, 1).copy().view("<u8").transpose(0, 2, 1).copy())


def _mul(a, b):
    """High and low words of the 128-bit products of ``a`` and ``b``, from their 32-bit halves."""
    s, low32 = _U64(32), _U64(0xFFFFFFFF)
    a1, a0, b1, b0 = a >> s, a & low32, b >> s, b & low32
    cross0, cross1, low = a0 * b1, a1 * b0, a0 * b0
    mid = (cross0 & low32) + (cross1 & low32) + (low >> s)
    return a1 * b1 + (cross0 >> s) + (cross1 >> s) + (mid >> s), (mid << s) | (low & low32)


def _shortest(mag):
    """Significands ``m`` and exponents ``e`` of the shortest decimals ``m * 10**e`` of doubles.

    ``mag`` holds the bits of finite positive doubles.  This is Schubfach
    (R. Giulietti, "The Schubfach way to render doubles", 2020), as Java's
    ``DoubleToDecimal`` computes it but without its two rules for output of
    at least two digits: a tiny subnormal is not scaled by ten, and the
    shorter candidate ``10 * floor(s / 10)`` is tried for every ``s``.  So
    it picks the decimal ``repr`` prints: the shortest that reads back as
    the same double and, among those, the nearest one, ties to even.
    ``m`` may end in zeros.  The value and its two rounding bounds are
    ``cp * g / 2**128`` and ``(cp -+ 2**n) * g / 2**128``, so one 192-bit
    product ``cp * g`` and two shifts of ``g`` give all three.  Spent arrays
    are dropped on the way, as the peak of live arrays sets the scratch.
    """
    one, two = _U64(1), _U64(2)
    frac, biased = mag & _U64(2**52 - 1), (mag >> _U64(52)).view(np.int64)
    c = np.where(biased > 0, frac | _U64(2**52), frac)
    # A power of two has a lower neighbour at half the spacing of the upper one.
    irregular = (frac == 0) & (biased > 1)
    q = np.maximum(biased, 1) - 1075
    k = (q * 1262611 - irregular * 524031) >> 22  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + ((-k * 1741647) >> 19) + 1).view(_U64)
    g = _tables()[0].take(292 - k, axis=1)
    x1, p0 = _mul(c << two + h, g[1])
    p2, p1 = _mul(c << two + h, g[0])
    p1 += x1
    p2 += p1 < x1
    vb = p2 | (p1 > one)  # rounded to odd: the last bit set when the word below exceeds 1
    # The upper bound adds 2**(h + 1) * g, the three words of g shifted.
    n, back = h + one, _U64(63) - h
    d2, d1, d0 = g[0] >> back, g[0] << n | g[1] >> back, g[1] << n
    s0, s1 = p0 + d0, p1 + d1
    carry = (s1 < d1) | ((s1 == _U64(2**64 - 1)) & (s0 < d0))
    upper = ((p2 + d2 + carry) | (s1 + (s0 < d0) > one)) - (c & one)
    n, back = n - irregular, back + irregular  # the lower bound subtracts it, or half of it
    d2, d1, d0 = g[0] >> back, g[0] << n | g[1] >> back, g[1] << n
    s1 = p1 - d1
    borrow = (p1 < d1) | ((s1 == 0) & (p0 < d0))
    lower = ((p2 - d2 - borrow) | (s1 - (p0 < d0) > one)) + (c & one)
    del q, x1, p0, p1, p2, d2, d1, d0, s0, s1, carry, borrow
    s, sp = vb >> two, (vb >> two) // _U64(10)
    up, wp = lower <= sp * _U64(40), sp * _U64(40) + _U64(40) <= upper
    u, w = lower <= s << two, (s + one) << two <= upper
    # Past the midpoint, or on it with s odd, rounds up (ties to even).
    nearer = np.where(u != w, w, vb + (s & one) > (s << two) + two)
    shorter = up != wp
    return np.where(shorter, sp + wp, s + nearer), k + shorter


def _text(m):
    """Words of the text of each ``m < 10**17`` scaled to 17 digits, and the digit count of ``m``.

    The first of the four words is all ASCII zeros; the next three hold the
    17 digits, the first in the lowest byte, then 7 zeros.  ``m`` is
    overwritten.
    """
    pow10, ten = _tables()[1], _U64(10)
    # floor(log10(m)) is that of 2**floor(log2(m)), or one more.
    ndig = ((m.astype(np.float64).view(np.int64) >> 52) - 1023) * 1233 >> 12
    ndig += 1 + (m >= pow10.take(ndig + 1, mode="clip"))
    m *= pow10.take(17 - ndig, mode="clip")
    tens = m // ten
    runs = _ascii8(np.stack([m // _U64(10**9), tens % _U64(10**8)]))
    zeros = np.full((1, len(m)), _ASCII_ZEROS)
    return np.concatenate([zeros, runs, (m - tens * ten + _ASCII_ZEROS)[None]]), ndig


def _ascii8(x):
    """ASCII words of the 8 digits of each ``x < 10**8``, the first digit in the lowest byte."""
    half = x // _U64(10000)
    pairs = half | (x - half * _U64(10000)) << _U64(32)  # two 4-digit halves in 32-bit lanes
    top = (pairs * _U64(10486)) >> _U64(20) & _U64(0x0000007F0000007F)  # lane // 100
    pairs = (pairs - _U64(100) * top) << _U64(16) | top  # 2-digit numbers in 16-bit lanes
    tens = (pairs * _U64(103)) >> _U64(10) & _U64(0x000F000F000F000F)  # lane // 10
    return tens + ((pairs - _U64(10) * tens) << _U64(8)) + _ASCII_ZEROS


def _fields(v) -> np.ndarray:
    """The ``(n, 3)`` words of the 24-byte field of each value: its text from byte 0, then ``0xFF``.

    An integer is the head of its 17-digit text (:func:`_text`).  A double
    is its sign, a head window of the 17-digit text of its significand, the
    decimal point and a tail window of the same text moved one byte further
    up.  Below 1 the head is a "0" and the tail starts with the zeros the
    point needs, both from the ASCII zeros a moved text has below its first
    digit.  In exponent form the head is the first digit, and ``e``, the
    exponent's sign and its at least two digits end the field at bytes
    19-23, padding before them.  A field is ``(head | a) & (tail | b) &
    chars``, its masks picked by its form and digit count from
    :func:`_tables`.  Non-finite floats, negative integers and integers
    from ``10**17`` up are written from ``repr``.
    """
    _, _, form, exponents, shifts, masks = _tables()
    if v.dtype.kind == "f":
        zero, slow = v == 0, ~np.isfinite(v)
        m, point = _shortest(np.abs(v).view(_U64))
        m[zero] = 0
        text, ndig = _text(m)
        point += ndig  # digits before the decimal point, as repr counts them
        point[zero] = 1
        # The exponent of this sum gives the digit count up to the last nonzero digit.
        ends = ((text[1:] ^ _ASCII_ZEROS) + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)
        ends = (ends.astype(float) * np.array([[1.0], [2.0**64], [2.0**128]])).sum(0) + 0.5
        key = form.take(point + 340 + 680 * np.signbit(v), mode="clip")
        key += (ends.view(np.int64) >> 52) - 1023 >> 3
    else:
        m = v.astype(np.int64)
        slow, point = (m < 0) | (m >= 10**17), 1
        text, ndig = _text(m.view(_U64))
        key = np.maximum(ndig, 1) + 18 * 21
    head, tail = shifts.take(key, axis=1)  # bits to move the head and the tail text up
    out = np.empty((len(v), 3), _U64)
    for i in range(3):
        word = text[i + 1] << head | text[i] >> _U64(64) - head | masks[0, i].take(key)
        word &= text[i + 1] << tail | text[i] >> _U64(64) - tail | masks[1, i].take(key)
        out[:, i] = word & masks[2, i].take(key)
    out[:, 2] &= exponents.take(point + 340, mode="clip")
    for i in np.flatnonzero(slow).tolist():
        out[i] = np.frombuffer(repr(v[i].item()).encode().ljust(24, b"\xff"), "<u8")
    return out


def _format_rows(items) -> list[str]:
    """Text of a document of literal strings and tables, as strings to join.

    An item is a ``str``, copied as it is, or a table ``(pieces, *groups)``
    whose rows read ``pieces[0] cell pieces[1] cell ... pieces[-1]``: the
    columns of all ``groups`` (2-d arrays of one row count and of 64-bit
    float or integer dtype) in order, so ``len(pieces)`` is one more than
    their total width.  A float cell holds the bytes of :func:`format_float`
    and an integer cell those of ``%d``.  The tables are cut at row ends
    into blocks of at most ``_BLOCK_CELLS`` cells (or one row), small tables
    sharing a block, and each block is printed by :func:`_render`.  When
    the integers of a call are ids ``0..n`` in more cells than ids, each id
    is formatted once and its field copied to every cell that holds it.
    """
    tables = [item[1:] for item in items if not isinstance(item, str)]
    ints = [g for groups in tables for g in groups if g.dtype.kind != "f" and g.size]
    low, high = (min(g.min() for g in ints), max(g.max() for g in ints)) if ints else (0, 0)
    # An integer field keeps the words its longest text needs, all three beside floats.
    mixed = any(len({g.dtype.kind == "f" for g in groups}) > 1 for groups in tables)
    width = 3 if mixed or low < 0 or high >= 10**15 else 1 if high < 10**7 else 2
    make = {True: _fields, False: lambda v: _fields(v)[:, :width]}
    if 0 <= low and high < sum(g.size for g in ints):
        ids = make[False](np.arange(high + 1))
        make[False] = lambda v: ids.take(v, axis=0)
    blocks, block, cells, lead = [], [], 0, ""
    for item in items:
        pieces, *groups = ("",) if isinstance(item, str) else item
        rows, wide = len(groups[0]) if groups else 0, sum(g.shape[1] for g in groups)
        if not rows * wide:  # a literal, or rows without cells
            lead += item if isinstance(item, str) else "".join(pieces) * rows
            continue
        # Each cell is followed by its piece, a row's last cell also by the next row's first.
        seps = [p.encode("utf-8", "surrogatepass")
                for p in (*pieces[1:-1], pieces[-1] + pieces[0], pieces[-1])]
        size = -(-max(map(len, seps)) // 8) * 8
        seps = np.frombuffer(b"".join(p.ljust(size, b"\xff") for p in seps), "<u8")
        seps = seps.reshape(wide + 1, -1)
        lead, step = lead + pieces[0], max(1, _BLOCK_CELLS // wide)
        for at in range(0, rows, step):
            if block and cells + min(step, rows - at) * wide > _BLOCK_CELLS:
                blocks.append(_render(block, make))
                block, cells = [], 0
            block.append((lead, seps, [g[at : at + step] for g in groups], at + step >= rows))
            cells, lead = cells + min(step, rows - at) * wide, ""
    return blocks + ([_render(block, make)] if block else []) + [lead]


def _render(block, make) -> str:
    """Text of a block of :func:`_format_rows`: its ``(lead, seps, groups, last)`` table parts.

    The cells of each dtype are computed at once as fields of ASCII bytes
    padded with ``0xFF`` (:func:`_fields`).  A part is its lead text, then
    one slot per cell: its field and the piece after it.  The padding of
    the block is deleted and its text decoded at once.
    """
    fields = {}  # per dtype, the fields of the cells of each group
    for flat in (True, False):
        if gs := [g for _, _, part, _ in block for g in part if (g.dtype.kind == "f") == flat]:
            fields[flat] = np.split(make[flat](np.concatenate([g.ravel() for g in gs])),
                                    np.cumsum([g.size for g in gs[:-1]]))[::-1]
    chunks = []
    for lead, seps, groups, last in block:
        cells = np.concatenate([fields[g.dtype.kind == "f"].pop().reshape(len(g), g.shape[1], -1)
                                for g in groups], axis=1)
        slots = np.dstack([cells, np.broadcast_to(seps[:-1], cells.shape[:2] + seps.shape[1:])])
        slots[-1, -1, cells.shape[2] :] = seps[-1 if last else -2]
        chunks += [lead.encode("utf-8", "surrogatepass"), slots]
    return b"".join(chunks).translate(None, b"\xff").decode("utf-8", "surrogatepass")


@record
class SpecDocument:
    """A parsed document: the spec plus its declared rationality."""

    version: int
    spec: CurveSpec | SurfaceSpec
    rational: bool


def parse_document(text: str) -> SpecDocument:
    """Parse and validate a JSON spec document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("", f"not valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise SpecError("", "not valid JSON (nested too deeply)") from None
    if not isinstance(raw, dict):
        raise SpecError("", "document must be a JSON object")
    doc_type = _field(raw, "type", "type", str, "a string")
    if doc_type not in _DOCUMENTS:
        raise SpecError("type", f"must be 'curve' or 'surface', got {doc_type!r}")
    fields, parse = _DOCUMENTS[doc_type]
    _object(raw, {"version", "type", "rational", *fields}, "")
    version = raw.get("version")
    if version != 1:
        raise SpecError("version", f"unsupported version {version!r} (expected 1)")
    rational = raw.get("rational", False)
    if not isinstance(rational, bool):
        raise SpecError("rational", "must be a boolean")
    return SpecDocument(1, parse(raw, rational), rational)


def parse_spec(text: str) -> CurveSpec | SurfaceSpec:
    """Parse a JSON spec document, returning only the spec."""
    return parse_document(text).spec


def _parse_curve(raw: dict, rational: bool) -> CurveSpec:
    """A curve is the one-direction case: its coordinates are read as patch factors."""
    from .exact import CurveSpec

    kind, alpha = _parse_direction(raw, "")
    coords = _objects(raw, "coords", "", {"terms"})
    fns = tuple(_parse_coordinate(c, kind, path) for path, c in coords)
    spec = _at("alpha", CurveSpec, kind, alpha, fns)
    if rational and spec.dimension < 2:
        raise SpecError("coords", "a rational curve needs at least 2 coordinates")
    return spec


def _parse_surface(raw: dict, rational: bool) -> SurfaceSpec:
    from .surface import (MAX_DIRECTIONS, Direction, ProductTerm, SurfaceCoordinateFunction,
                          SurfaceSpec)

    entries = _objects(raw, "directions", "", {"kind", "alpha"}, minimum=2)
    if len(raw["directions"]) > MAX_DIRECTIONS:
        raise SpecError("directions", f"at most {MAX_DIRECTIONS} directions supported")
    directions = [_at(f"{p}.alpha", Direction, *_parse_direction(d, p)) for p, d in entries]
    delta = len(directions)
    coords = _objects(raw, "coords", "", {"summands"})
    count = len(raw["coords"])
    if count < delta + rational:
        raise SpecError(
            "coords",
            f"{count} coordinate(s) cannot cover {delta} direction(s)"
            + (" plus a denominator" if rational else ""),
        )
    fns = []
    for path, c in coords:
        terms = []
        for spath, s in _objects(c, "summands", path, {"factors"}):
            factors = _objects(s, "factors", spath, {"terms"})
            if len(s["factors"]) != delta:
                raise SpecError(
                    f"{spath}.factors", f"expected {delta} factors, got {len(s['factors'])}"
                )
            terms.append(ProductTerm(tuple(
                _parse_coordinate(f, d.kind, fpath) for d, (fpath, f) in zip(directions, factors)
            )))
        fns.append(SurfaceCoordinateFunction(tuple(terms)))
    return SurfaceSpec(tuple(directions), count - delta - rational, tuple(fns))


# Document type -> the fields it adds to version, type and rational, and its parser.
_DOCUMENTS = {
    "curve": ({"kind", "alpha", "coords"}, _parse_curve),
    "surface": ({"directions", "coords"}, _parse_surface),
}


def _parse_direction(raw: dict, path: str) -> tuple[BasisKind, float]:
    """Kind and alpha of a curve (``path`` empty) or of a patch direction."""
    prefix = f"{path}." if path else ""
    value = _field(raw, "kind", f"{prefix}kind", str, "a string")
    if value not in _KINDS:
        raise SpecError(f"{prefix}kind", f"must be 'trigonometric' or 'hyperbolic', got {value!r}")
    alpha = _number(raw, "alpha", f"{prefix}alpha", angle=True)
    if alpha <= 0.0:
        raise SpecError(f"{prefix}alpha", f"must be positive, got {alpha!r}")
    return _KINDS[value], alpha


def _parse_coordinate(raw: dict, kind: BasisKind, path: str) -> CoordinateFunction:
    """A curve coordinate or a patch factor: a list of terms in one direction's kind."""
    from .exact import CoordinateFunction

    terms = _objects(raw, "terms", path, {"family", "k", "a", "phase"})
    return CoordinateFunction(tuple(_parse_term(t, kind, tpath) for tpath, t in terms))


def _parse_term(raw: dict, kind: BasisKind, path: str) -> Term:
    from .exact import Term, TermFamily

    family_raw = _field(raw, "family", f"{path}.family", str, "a string")
    families = _FAMILY_NAMES[kind]
    if family_raw not in families:
        expected = " or ".join(sorted(families))
        raise SpecError(
            f"{path}.family",
            f"{family_raw!r} does not match the {kind.value} kind (expected {expected})",
        )
    k = raw.get("k")
    if not _is_count(k):
        raise SpecError(f"{path}.k", f"must be a nonnegative integer, got {k!r}")
    if k > _MAX_ORDER:
        raise SpecError(f"{path}.k", f"{k} exceeds the order cap {_MAX_ORDER}")
    a = _number(raw, "a", f"{path}.a")
    phase = _number(raw, "phase", f"{path}.phase", angle=True) if "phase" in raw else 0.0
    family = TermFamily.COSINE if family_raw == families[0] else TermFamily.SINE
    return Term(family, k, a, phase)


def _field(raw: dict, key: str, path: str, types, noun: str):
    """``raw[key]``, or a spec error at ``path`` unless it is one of ``types`` (never a bool)."""
    value = raw.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise SpecError(path, f"must be {noun}, got {value!r}")
    return value


def _number(raw: dict, key: str, path: str, angle: bool = False) -> float:
    """A finite number, or with ``angle`` also an angle literal (see :func:`parse_angle`)."""
    if angle:
        value = _field(raw, key, path, (int, float, str), "a number or an angle literal")
    else:
        value = _field(raw, key, path, (int, float), "a number")
    try:
        value = _at(path, parse_angle, value) if isinstance(value, str) else float(value)
    except OverflowError:  # an integer beyond double range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise SpecError(path, f"must be finite, got {value!r}")
    return value


def _at(path: str, fn, *args):
    """``fn(*args)``, whose range errors become spec errors at ``path``."""
    try:
        return fn(*args)
    except RangeError as exc:
        raise SpecError(path, str(exc)) from None


def _objects(raw: dict, key: str, path: str, allowed: set, minimum: int = 1):
    """``(path, entry)`` for each object listed under ``key`` of the object at ``path``.

    The list is checked at once; each entry (an object with ``allowed``
    fields only) when iteration reaches it, so faults surface in document order.
    """
    path = f"{path}.{key}" if path else key
    items = _field(raw, key, path, list, "an array")
    if len(items) < minimum:
        raise SpecError(path, f"must have at least {minimum} entr{'y' if minimum == 1 else 'ies'}")
    return ((f"{path}[{i}]", _object(x, allowed, f"{path}[{i}]")) for i, x in enumerate(items))


def _object(raw, allowed: set, path: str) -> dict:
    if not isinstance(raw, dict):
        raise SpecError(path, "must be an object")
    for key in raw:
        if key not in allowed:
            raise SpecError(f"{path}.{key}" if path else key, "unknown field")
    return raw


# ---------------------------------------------------------------------------
# SVG


@record
class SvgPath:
    """A 2-d path for the SVG exporter.

    ``role`` is ``"curve"`` (solid) or ``"polygon"`` (dashed, with labeled
    vertex markers).
    """

    points: np.ndarray
    role: str = "curve"
    label: str = "d"


_SVG_COLORS = {"curve": "#1f4e79", "polygon": "#b55442"}


def export_svg(paths, margin: float = 0.05) -> str:
    """Deterministic SVG 1.1 drawing of curves and control polygons.

    The y axis is flipped to mathematical orientation and the viewBox fits
    all points with a 5 percent margin.  Only 2-d data is accepted.
    """
    paths = list(paths)
    if not paths:
        raise RangeError("nothing to export: empty path list")
    flipped = []
    for idx, path in enumerate(paths):
        pts = np.asarray(path.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RangeError(f"path {idx} is not 2-d (shape {pts.shape})")
        if pts.shape[0] < 2:
            raise RangeError(f"path {idx} needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise RangeError(f"path {idx} contains non-finite points")
        if path.role not in _SVG_COLORS:
            raise RangeError(f"path {idx} has unknown role {path.role!r}")
        flipped.append((path, pts * np.array([1.0, -1.0])))

    stacked = np.vstack([pts for _, pts in flipped])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    extent = float(max(hi[0] - lo[0], hi[1] - lo[1])) or 1.0
    pad = margin * extent
    width, height = hi - lo + 2.0 * pad
    f = format_float
    stroke, radius, font = extent / 300.0, extent / 120.0, extent / 30.0

    items = ['<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
             f'version="1.1" viewBox="{f(lo[0] - pad)} {f(lo[1] - pad)} {f(width)} {f(height)}">\n']
    # One formatter call for every path and marker, as each call has a fixed cost.
    for path, pts in flipped:
        color = _SVG_COLORS[path.role]
        items += ['  <path d="M ', (("", ",", ""), pts[:1]), ((" L ", ",", ""), pts[1:])]
        dash = f' stroke-dasharray="{f(4 * stroke)} {f(3 * stroke)}"' * (path.role == "polygon")
        items.append(f'" fill="none" stroke="{color}" stroke-width="{f(stroke)}"{dash}/>\n')
        if path.role == "polygon":
            # XML-escape the label as xml.sax.saxutils.escape does; importing
            # that module pulls in urllib.request and ssl (+7 MB, +45 ms).
            label = path.label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            marker = (
                '  <circle cx="', '" cy="', f'" r="{f(radius)}" fill="{color}"/>\n  <text x="',
                '" y="', f'" font-size="{f(font)}" fill="{color}">{label}', "</text>\n",
            )
            offset = 1.6 * radius
            coords = np.column_stack([pts, pts[:, 0] + offset, pts[:, 1] - offset])
            items.append((marker, coords, np.arange(len(pts))[:, None]))
    items.append("</svg>\n")
    return "".join(_format_rows(items))


# ---------------------------------------------------------------------------
# OBJ


def _quads(slabs: np.ndarray) -> np.ndarray:
    """Quads of an id array indexed ``(p, q, slab)``, in that row-major order.

    Each quad is ``(p, q) (p+1, q) (p+1, q+1) (p, q+1)`` within its slab.
    """
    corners = (slabs[:-1, :-1], slabs[1:, :-1], slabs[1:, 1:], slabs[:-1, 1:])
    return np.stack(corners, axis=-1).reshape(-1, 4)


_VERTEX = ("v ", " ", " ", "\n")


def export_obj(samples, control_net=None) -> str:
    """Wavefront OBJ text for sampled 3-d geometry.

    ``samples`` may be a polyline ``(N, 3)``, a patch lattice
    ``(N1, N2, 3)`` exported as quads, or a volume lattice
    ``(N1, N2, N3, 3)`` exported as its boundary quads.  ``control_net``,
    when given, must have matching dimensionality; its points are appended
    and connected with ``l`` records along every grid edge.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2 or samples.ndim > 4 or samples.shape[-1] != 3:
        raise RangeError(f"samples must be (..., 3) with 1 to 3 lattice axes, got {samples.shape}")
    if any(s < 2 for s in samples.shape[:-1]):
        raise RangeError("need at least 2 samples per lattice axis")
    if not np.all(np.isfinite(samples)):
        raise RangeError("samples contain non-finite points")
    ids = np.arange(1, samples[..., 0].size + 1).reshape(samples.shape[:-1])
    items = ["g samples\n", (_VERTEX, samples.reshape(-1, 3))]
    if samples.ndim == 2:
        items += ["l", ((" ", ""), ids[:, None]), "\n"]
    else:
        # A patch is one slab; a volume its boundary slabs k = 0, N3-1, then
        # j = 0, N2-1, then i = 0, N1-1.
        slabs = [ids[..., None]] if samples.ndim == 3 else [
            ids[:, :, [0, -1]], ids[:, [0, -1]].transpose(0, 2, 1), ids[[0, -1]].transpose(1, 2, 0)]
        items.append((("f ", " ", " ", " ", "\n"), np.concatenate([_quads(s) for s in slabs])))

    if control_net is not None:
        net = np.asarray(control_net, dtype=float)
        if net.ndim != samples.ndim or net.shape[-1] != 3:
            raise RangeError(f"control net shape {net.shape} does not match sample dimensionality")
        if not np.all(np.isfinite(net)):
            raise RangeError("control net contains non-finite points")
        nids = np.arange(ids.size + 1, ids.size + net[..., 0].size + 1).reshape(net.shape[:-1])
        items += ["g control_net\n", (_VERTEX, net.reshape(-1, 3))]
        # Edges along axis 0 first, then axis 1, ...; row-major within an axis.
        for axis in range(nids.ndim):
            head = (slice(None),) * axis
            edges = np.stack([nids[head + (slice(None, -1),)], nids[head + (slice(1, None),)]], -1)
            items.append((("l ", " ", "\n"), edges.reshape(-1, 2)))
    return "".join(_format_rows(items))


# ---------------------------------------------------------------------------
# Tables


def export_table(data, fmt: str, columns=None) -> str:
    """Serialize numeric data as CSV (up to 2-d) or JSON (any shape).

    Floats are printed so that parsing the text back recovers the identical
    doubles; :func:`parse_table` is the inverse, so CSV column names it
    would not read back as the same header are refused.
    """
    data = np.asarray(data, dtype=float)
    if fmt == "csv":
        if data.ndim > 2:
            raise RangeError(f"CSV supports at most 2-d data, got shape {data.shape}")
        table = data if data.ndim == 2 else data[:, None] if data.ndim == 1 else data[None, None]
        if columns is not None and len(table) and len(columns) != table.shape[1]:
            raise RangeError(f"{len(columns)} column names for {table.shape[1]} columns")
        header = "" if columns is None else _csv_header(columns)
        return "".join(_format_rows([header, (["", *[","] * (table.shape[1] - 1), "\n"], table)]))
    if fmt == "json":
        payload = {"data": data.tolist()}
        if columns is not None:
            payload["columns"] = list(columns)
        return json.dumps(payload, indent=2) + "\n"
    raise RangeError(f"unknown table format {fmt!r}")


def _csv_header(columns) -> str:
    """The CSV header line naming ``columns``, refused unless :func:`parse_table` reads it back."""
    names = [str(c) for c in columns]
    for name in names:
        if "," in name or "".join(name.splitlines()) != name:
            raise RangeError(f"column name {name!r} contains a comma or a line break")
    line = ",".join(names)
    if names and not line.strip():
        raise RangeError(f"column names {names} make a blank header line")
    if names and _is_data_row(names):
        raise RangeError(f"column names {names} all parse as numbers")
    return line + "\n"


def _is_data_row(fields) -> bool:
    """Whether a CSV line's fields are read as data (each parses as a float), not as a header."""
    try:
        [float(x) for x in fields]
    except ValueError:
        return False
    return True


def parse_table(text: str, fmt: str):
    """Inverse of :func:`export_table`; returns ``(array, columns or None)``.

    A CSV row whose width differs from the header's (or the first row's) and
    a data cell that is not a number raise a range error naming the 1-based line.
    """
    if fmt == "csv":
        head = columns = None
        rows = []
        for i, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split(",")
            if head is None and not _is_data_row(fields):
                head = columns = fields  # a first line that is not data is the header
                continue
            head = head or fields
            if len(fields) != len(head):
                raise RangeError(f"CSV line {i}: expected {len(head)} fields, got {len(fields)}")
            try:
                rows.append(list(map(float, fields)))
            except ValueError:
                raise RangeError(f"CSV line {i}: a data cell is not a number") from None
        return np.array(rows).reshape(len(rows), len(head or ())), columns
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            reason = f"{exc.msg} at line {exc.lineno}"
            raise RangeError(f"JSON table: not valid JSON ({reason})") from None
        except RecursionError:
            raise RangeError("JSON table: not valid JSON (nested too deeply)") from None
        if not isinstance(payload, dict) or "data" not in payload:
            raise RangeError('JSON table: expected an object with a "data" entry')
        _json_shape(payload["data"], "data")  # raises for a ragged entry or a non-number
        try:
            return np.asarray(payload["data"], dtype=float), payload.get("columns")
        except OverflowError:
            raise RangeError("JSON table: data holds an integer beyond double range") from None
    raise RangeError(f"unknown table format {fmt!r}")


def _json_shape(value, path: str) -> tuple:
    """Shape of nested lists of numbers, or a range error naming the first entry at fault.

    A number is a JSON integer or float (``NaN`` and ``Infinity`` included);
    ``true``, ``false``, ``null`` and strings are not.
    """
    if type(value) in (int, float):
        return ()
    if not isinstance(value, list):
        raise RangeError(f"JSON table: {path} is not a number")
    # A number's path is spelled out only when it is at fault.
    shapes = [() if type(v) in (int, float) else _json_shape(v, f"{path}[{i}]")
              for i, v in enumerate(value)]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise RangeError(f"JSON table: {path}[{i}] has shape {shape}, not {shapes[0]}")
    return (len(value),) + (shapes[0] if shapes else ())
