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
form, and integer ids with numpy integer arithmetic on blocks of up to
``_BLOCK_CELLS`` cells, the digits from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; :func:`_shortest`); the other
values (``nan``, ``inf``, ``-inf``) still go through ``repr``.  A block
formats each distinct 64-bit pattern among its float cells once (so
``0.0`` and ``-0.0`` stay apart, as do NaNs of different payloads) and
gathers its field into every cell that holds it.  Every step writes with
``out=`` into one scratch buffer that all blocks of a call reuse, at most
14 words a cell, 1.1 MB for a block.
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


# Cells per block of :func:`_format_rows`: the largest block whose scratch,
# at most 14 words a cell (see :func:`_render`) and reused by every block of
# a call, stays within the 1.5 MB that tests/test_io_exact_bytes.py allows.
# Smaller blocks pay the fixed cost of some 250 numpy calls more often.
_BLOCK_CELLS = 10240

_U64 = np.uint64


@cache
def _u(value, dtype=_U64):
    """``value`` as a read-only 0-d array, which a ufunc reads in half the time of a scalar."""
    value = np.array(value, dtype)
    value.flags.writeable = False
    return value


_ASCII_ZEROS, _M32 = _u(0x3030303030303030), _u(2**32 - 1)


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
    bit offsets of its head and tail text, each followed by 64 less it, and
    ``masks``, the words of its head, tail and character masks.
    """
    tens = np.cumprod([1] + [10] * 324, dtype=object).tolist()
    g = [(tens[e] << 127 >> ((e * 1741647) >> 19) if e >= 0
          else (1 << 127 - ((e * 1741647) >> 19)) // tens[-e]) + 1 for e in range(-292, 325)]
    split = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in g), "<u8").reshape(-1, 2)
    p = np.arange(-340, 340)
    form = np.where((p > 0) & (p <= 16), p - 1, np.where((p <= 0) & (p > -4), 16 - p, 20))
    size = np.abs(p - 1).astype(_U64)  # "e-" or "e+", at least two digits
    exponents = _ascii8(size.copy(), *np.empty((2, len(p)), _U64)) >> _U64(40) << _U64(16)
    exponents |= np.where(p < 1, _U64(0x2D65), _U64(0x2B65)) | (size < _U64(100)) * _U64(0xFF0000)
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
    head, tail = 8 * by_form(0, 1, 0, 0), 8 * by_form(1, 2 - p, 1, 0)
    return (split.T[::-1].copy(), np.array(tens[:18], dtype=_U64),
            (form + [[0], [22]]).ravel() * 18 + 1, exponents,
            np.stack([head, 64 - head, tail, 64 - tail]).astype(_U64),
            masks.transpose(0, 2, 1).copy().view("<u8").transpose(0, 2, 1).copy())


def _shortest(r, b):
    """Significands ``m`` and exponents ``k`` of the shortest decimals ``m * 10**k`` of doubles.

    ``r[0]`` holds the bits of finite positive doubles; ``m`` is left in
    ``r[5]`` and ``k`` in ``r[11]``, and the rest of ``r[:12]`` and the bool
    rows ``b[3:8]`` are scratch.  This is Schubfach (R. Giulietti, "The
    Schubfach way to render doubles", 2020), as Java's ``DoubleToDecimal``
    computes it but without its two rules for output of at least two
    digits: a tiny subnormal is not scaled by ten, and the shorter candidate
    ``10 * floor(s / 10)`` is tried for every ``s``.  So it picks the
    decimal ``repr`` prints: the shortest that reads back as the same double
    and, among those, the nearest one, ties to even.  ``m`` may end in
    zeros.  The value and its two rounding bounds are ``cp * g / 2**128`` and
    ``(cp -+ 2**n) * g / 2**128``, so one 192-bit product ``cp * g`` and two
    shifts of ``g`` give all three.  Each step writes into a row whose value
    is spent.
    """
    cp, n, col, a0, vb, p0, p2, p1, gw, t, upper, lower = r[:12]
    irregular, odd, c0, c1, e = b[3:8]
    one, g, i64 = _u(1), _tables()[0], np.int64
    q, k, low = n.view(i64), col.view(i64), t.view(i64)
    np.right_shift(cp, _u(52), out=n)  # the biased exponent
    cp &= _u(2**52 - 1)
    # A power of two has a lower neighbour at half the spacing of the upper one.
    np.logical_and(np.equal(cp, _u(0), out=irregular), np.greater(n, one, out=c0), out=irregular)
    cp |= np.left_shift(np.minimum(n, one, out=t), _u(52), out=t)  # c
    np.bitwise_and(cp, one, out=odd, casting="unsafe")
    np.subtract(np.maximum(q, _u(1, i64), out=q), _u(1075, i64), out=q)  # c * 2**q
    np.multiply(q, _u(1262611, i64), out=k)
    np.subtract(k, _u(524031, i64), out=k, where=irregular)
    k >>= _u(22, i64)  # floor(log10(2**q)), or of 3/4 2**q
    np.right_shift(np.multiply(k, _u(-1741647, i64), out=low), _u(19, i64), out=low)
    q += np.add(low, _u(2, i64), out=low)  # n = h + 1
    np.subtract(_u(292, i64), k, out=k)  # the column of g = 10**-k
    cp <<= np.add(n, one, out=t)
    np.bitwise_and(cp, _M32, out=a0)
    cp >>= _u(32)  # c << h + 2 in 32-bit halves, cp and a0
    for word, hi, lo in ((g[1], vb, p0), (g[0], p2, p1)):  # the 128-bit products cp * g
        np.bitwise_and(word.take(k, out=gw, mode="clip"), _M32, out=t)
        np.multiply(cp, np.right_shift(gw, _u(32), out=gw), out=hi)
        gw *= a0
        np.multiply(a0, t, out=lo)
        t *= cp
        gw += np.right_shift(lo, _u(32), out=upper)
        t += np.bitwise_and(gw, _M32, out=upper)
        hi += np.right_shift(gw, _u(32), out=gw)
        hi += np.right_shift(t, _u(32), out=upper)
        np.bitwise_or(np.bitwise_and(lo, _M32, out=lo), np.left_shift(t, _u(32), out=t), out=lo)
    p1 += vb
    p2 += np.less(p1, vb, out=c0)
    # Rounded to odd: the last bit set when the word below exceeds 1.
    np.bitwise_or(p2, np.greater(p1, one, out=c0), out=vb)
    # The upper bound adds 2**n * g, the three words of g shifted; the lower
    # bound subtracts it, or half of it.
    back = np.subtract(_u(64), n, out=cp)
    for bound in upper, lower:
        if bound is lower:
            n -= irregular
            back += irregular
        np.right_shift(g[0].take(k, out=gw, mode="clip"), back, out=bound)
        gw <<= n
        gw |= np.right_shift(g[1].take(k, out=t, mode="clip"), back, out=a0)
        t <<= n
        if bound is upper:  # with the carries out of the low and the middle word
            np.less(np.add(t, p0, out=t), p0, out=c0)
            np.less(np.add(gw, p1, out=gw), p1, out=c1)
            np.logical_and(np.equal(gw, ~_u(0), out=e), c0, out=e)
            np.add(np.add(bound, p2, out=bound), np.logical_or(e, c1, out=e), out=bound)
            gw += c0
        else:  # with the borrows
            np.less(p0, t, out=c0)
            np.less(p1, gw, out=c1)
            np.logical_and(np.equal(np.subtract(p1, gw, out=gw), _u(0), out=e), c0, out=e)
            np.subtract(np.subtract(p2, bound, out=bound), np.logical_or(e, c1, out=e), out=bound)
            gw -= c0
        bound |= np.greater(gw, one, out=e)
    upper -= odd
    lower += odd
    s, cand, sp = p0, p2, p1
    np.floor_divide(np.right_shift(vb, _u(2), out=s), _u(10), out=sp)
    np.less_equal(lower, np.multiply(sp, _u(40), out=cand), out=c0)
    np.less_equal(np.add(cand, _u(40), out=cand), upper, out=c1)
    shorter = np.not_equal(c0, c1, out=e)
    sp += c1
    np.less_equal(lower, np.left_shift(s, _u(2), out=cand), out=c0)
    np.less_equal(np.add(cand, _u(4), out=cand), upper, out=c1)
    # Past the midpoint, or on it with s odd, rounds up (ties to even).
    np.add(np.bitwise_and(s, one, out=gw), vb, out=gw)
    tie = np.greater(gw, np.subtract(cand, _u(2), out=cand), out=irregular)
    c0 ^= c1  # s + w is nearer where u and w differ
    s += np.logical_or(np.logical_and(c1, c0, out=c1), np.greater(tie, c0, out=tie), out=c1)
    np.copyto(s, sp, where=shorter)
    np.add(np.subtract(_u(292, i64), k, out=lower.view(i64)), shorter, out=lower.view(i64))


def _text(r, m):
    """Words of the text of each ``m < 10**17`` scaled to 17 digits, and the digit count of ``m``.

    The three words ``r[1:4]`` get the 17 digits, the first in the lowest
    byte, then 7 ASCII zeros, and ``r[4]`` the count; ``m`` is overwritten
    and ``r[6:10]`` are scratch.
    """
    pow10, i64 = _tables()[1], np.int64
    ndig, at = r[4].view(i64), r[7].view(i64)
    np.copyto(r[4].view(np.float64), m, casting="unsafe")
    # floor(log10(m)) is that of 2**floor(log2(m)), or one more.
    np.subtract(np.right_shift(ndig, _u(52, i64), out=ndig), _u(1023, i64), out=ndig)
    np.right_shift(np.multiply(ndig, _u(1233, i64), out=ndig), _u(12, i64), out=ndig)
    pow10.take(np.add(ndig, _u(1, i64), out=at), out=r[6], mode="clip")
    ndig += np.greater_equal(m, r[6], out=r[8]).view(i64)
    ndig += _u(1, i64)
    m *= pow10.take(np.subtract(_u(17, i64), ndig, out=at), out=r[6], mode="clip")
    np.floor_divide(m, _u(10**9), out=r[1])
    np.floor_divide(m, _u(10), out=r[2])
    np.subtract(m, np.multiply(r[2], _u(10), out=r[3]), out=r[3])
    r[3] |= _ASCII_ZEROS
    r[2] -= np.multiply(np.floor_divide(r[2], _u(10**8), out=r[6]), _u(10**8), out=r[6])
    _ascii8(r[1:3], r[6:8], r[8:10])
    return ndig


def _ascii8(x, t, s):
    """Overwrite each ``x < 10**8`` with the ASCII word of its 8 digits, the first lowest.

    ``t`` and ``s`` are scratch of ``x``'s shape.  Each step splits every
    lane in two by a multiply and a shift: 4-digit halves in 32-bit lanes,
    2-digit numbers in 16-bit lanes, then digits in bytes.
    """
    for mul, shift, mask, base, lane in ((109951163, 40, 2**64 - 1, 10000, 32),
                                         (10486, 20, 0x0000007F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        np.right_shift(np.multiply(x, _u(mul), out=t), _u(shift), out=t)
        t &= _u(mask)  # each lane // base
        x -= np.multiply(t, _u(base), out=s)
        x <<= _u(lane)
        x |= t
    x |= _ASCII_ZEROS
    return x


def _fields(w, n, floats):
    """The ``(3, n)`` words of the 24-byte field of each value: its text from byte 0, then ``0xFF``.

    The values are the first ``n`` words of ``w``, the bits of doubles or
    int64 integers; the fields are left in the first ``3 n`` words, and
    ``w[:13 n]`` is scratch.  An integer is the head of its 17-digit text
    (:func:`_text`).  A double is its sign, a head window of the 17-digit
    text of its significand, the decimal point and a tail window of the same
    text moved one byte further up.  Below 1 the head is a "0" and the tail
    starts with the zeros the point needs, both from the ASCII zeros a moved
    text has below its first digit.  In exponent form the head is the first
    digit, and ``e``, the exponent's sign and its at least two digits end the
    field at bytes 19-23, padding before them.  A field is ``(head | a) &
    (tail | b) & chars``, its masks picked by its form and digit count from
    :func:`_tables`.  Non-finite floats, negative integers and integers from
    ``10**17`` up are written from ``repr``.
    """
    _, _, form, exponents, shifts, masks = _tables()
    r, i64 = w[: 13 * n].reshape(13, n), np.int64
    b, point, key = r[12].view(np.bool_).reshape(8, n), r[11].view(i64), r[4].view(i64)
    (neg, zero, slow), v = b[:3], r[0]
    if floats:
        np.greater_equal(np.left_shift(v, _u(1), out=r[1]), _u(0xFFE << 52), out=slow)
        late = [repr(x) for x in v[slow].view(np.float64).tolist()]
        np.greater_equal(v, _u(2**63), out=neg)
        np.equal(np.bitwise_and(v, _u(2**63 - 1), out=v), _u(0), out=zero)
        _shortest(r, b)
        np.copyto(r[5], _u(0), where=zero)
        point += _text(r, r[5])  # digits before the decimal point, as repr counts them
        np.copyto(point, _u(1, i64), where=zero)
        at = np.add(point, _u(340, i64), out=r[10].view(i64))
        exponents.take(at, out=r[5], mode="clip")
        form.take(np.add(at, _u(680, i64), out=at, where=neg), out=key, mode="clip")
        # The top bits of the bytes of nonzero digits; the exponent of the
        # highest gives the digit count up to the last nonzero digit.
        flags = np.add(r[1:4], _u(0x4F4F4F4F4F4F4F4F), out=r[6:9])
        flags &= _u(0x8080808080808080)
        top, last = r[9:12].view(i64), r[6].view(i64)
        np.copyto(top.view(np.float64), flags, casting="unsafe")
        top >>= _u(52, i64)
        top += _u(((-1023,), (-959,), (-895,)), i64)
        np.maximum(top.max(0, out=last), _u(-1, i64), out=last)
        key += np.right_shift(last, _u(3, i64), out=last)
    else:
        np.greater_equal(v, _u(10**17), out=slow)
        late = ["%d" % x for x in v[slow].view(i64).tolist()]
        np.add(np.maximum(_text(r, v), _u(1, i64), out=key), _u(18 * 21, i64), out=key)
    head, nhead, tail, ntail = shifts.take(key, axis=1, out=r[6:10], mode="clip")
    mix, t = r[10:12]
    for i, lo, hi in ((0, _ASCII_ZEROS, r[1]), (1, r[1], r[2]), (2, r[2], r[3])):
        np.bitwise_or(np.left_shift(hi, tail, out=mix), np.right_shift(lo, ntail, out=t), out=mix)
        mix |= masks[1, i].take(key, out=t, mode="clip")  # the tail window
        np.bitwise_or(np.right_shift(lo, nhead, out=t), np.left_shift(hi, head, out=r[i]), out=r[i])
        r[i] |= masks[0, i].take(key, out=t, mode="clip")  # and the head window
        r[i] &= mix
        r[i] &= masks[2, i].take(key, out=t, mode="clip")
    if floats:
        r[2] &= r[5]
    for i, text in zip(np.flatnonzero(slow).tolist(), late):
        r[:3, i] = np.frombuffer(text.encode().ljust(24, b"\xff"), "<u8")
    return r[:3]


def _scratch(work, size):
    """The first ``size`` words of the scratch ``work[0]``, replaced first if it is shorter."""
    if len(work[0]) < size:
        work[0] = np.empty(size, _U64)
    return work[0][:size]


def _format_rows(items) -> list[str]:
    """Text of a document of literal strings and tables, as strings to join.

    An item is a ``str``, copied as it is, or a table ``(pieces, *groups)``
    whose rows read ``pieces[0] cell pieces[1] cell ... pieces[-1]``: the
    columns of all ``groups`` (2-d arrays of one row count and of 64-bit
    float or integer dtype) in order, so ``len(pieces)`` is one more than
    their total width.  A float cell holds the bytes of :func:`format_float`
    and an integer cell those of ``%d``.  The tables are cut at row ends
    into blocks of at most ``_BLOCK_CELLS`` cells (or one row), small tables
    sharing a block, and each block is printed by :func:`_render` in
    scratch words that every block of the call reuses.  When the integers
    of a call are ids ``0..n`` in more cells than ids, each id is formatted
    once and its field copied to every cell that holds it.
    """
    tables = [item[1:] for item in items if not isinstance(item, str)]
    ints = [g for groups in tables for g in groups if g.dtype.kind != "f" and g.size]
    low, high = (min(g.min() for g in ints), max(g.max() for g in ints)) if ints else (0, 0)
    # An integer field keeps the words its longest text needs, all three beside floats.
    mixed = any(len({g.dtype.kind == "f" for g in groups}) > 1 for groups in tables)
    width = 3 if mixed or low < 0 or high >= 10**15 else 1 if high < 10**7 else 2
    work, ids = [np.empty(0, _U64)], None
    # Ids skip the dedupe of _render: its int64 argsort costs 150-180 us per
    # 10,240-cell block of OBJ faces, about +1.2 ms on an 11 ms mesh export,
    # and one offset table for every integer left io.py no shorter.
    if 0 <= low and high < sum(g.size for g in ints):
        ids = np.empty((width, high + 1), _U64)
        for at in range(0, high + 1, _BLOCK_CELLS):
            chunk = np.arange(at, min(at + _BLOCK_CELLS, high + 1))
            _scratch(work, 13 * len(chunk))[: len(chunk)] = chunk
            ids[:, at : at + len(chunk)] = _fields(work[0], len(chunk), False)[:width]
    blocks, block, cells, lead = [], [], 0, ""
    for item in items:
        pieces, *groups = ("",) if isinstance(item, str) else item
        rows, wide = len(groups[0]) if groups else 0, sum(g.shape[1] for g in groups)
        if not rows * wide:  # a literal, or rows without cells
            lead += item if isinstance(item, str) else "".join(pieces) * rows
            continue
        # Each cell is preceded by its piece, a row's first cell by the previous row's last
        # and its first; the table's first cell by none, as its lead ends in it.
        seps = [p.encode("utf-8", "surrogatepass")
                for p in (pieces[-1] + pieces[0], *pieces[1:-1], "")]
        size = -(-max(map(len, seps)) // 8) * 8
        seps = np.frombuffer(b"".join(p.rjust(size, b"\xff") for p in seps), "<u8")
        seps = seps.reshape(wide + 1, -1)
        words = 3 if any(g.dtype.kind == "f" for g in groups) else width
        lead, step = lead + pieces[0], max(1, _BLOCK_CELLS // wide)
        for at in range(0, rows, step):
            if block and cells + min(step, rows - at) * wide > _BLOCK_CELLS:
                blocks.append(_render(block, ids, work))
                block, cells = [], 0
            text = lead.encode("utf-8", "surrogatepass")
            text = np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\xff"), "<u8")
            block.append((text, seps, words, [g[at : at + step] for g in groups], at == 0))
            cells, lead = cells + min(step, rows - at) * wide, ""
        lead = pieces[-1]
    return blocks + ([_render(block, ids, work)] if block else []) + [lead]


def _render(block, ids, work) -> str:
    """Text of a block of :func:`_format_rows`: its ``(lead, seps, words, groups, first)`` parts.

    The float cells, and the integer cells unless they are ids, are printed
    by their distinct 64-bit patterns: sorted, each pattern's field computed
    once by :func:`_fields`, and gathered for every cell that holds it.  A
    part is its lead text, then one slot per cell: the piece before the
    cell, padded with ``0xFF`` in front, and the first ``words`` of its
    field, so a slot keeps its text in one run.  The parts are written into
    one buffer whose padding is deleted and whose text is decoded at once.
    All of it lives in ``work``: per ``n`` cells of a kind, ``n`` words of
    indices and ``3 u`` of fields for its ``u`` distinct values (``13 u``
    while they are computed), then the slots and the mask of their padding.
    """
    cells = [g for *_, groups, _ in block for g in groups if g.size]
    kinds = {flat: [g for g in cells if (g.dtype.kind == "f") == flat] for flat in (True, False)}
    counts = [sum(g.size for g in gs) for gs in kinds.values()]
    size = sum(len(lead) + len(gs[0]) * (len(seps) - 1) * (words + seps.shape[1])
               for lead, seps, words, gs, _ in block)
    need = 4 * sum(counts) + max(10 * max(counts), 2 * size)
    w, fields, at, i64 = _scratch(work, need), {}, 0, np.int64
    for (flat, gs), n in zip(kinds.items(), counts):
        index, (v, s, new, rank) = w[at : at + n].view(i64), w[at + n : at + 5 * n].reshape(4, n)
        if gs and ids is not None and not flat:
            fields[flat] = ids, np.concatenate([g.ravel() for g in gs], out=index)
        elif gs:
            v = np.concatenate([g.ravel() for g in gs], out=v.view(np.float64 if flat else i64)).view(_U64)
            order = v.view(i64).argsort()
            v.take(order, out=s, mode="clip")
            new = new.view(np.bool_)[:n]
            np.not_equal(s[1:], s[:-1], out=new[1:])
            new[0] = True
            rank = np.add(new.cumsum(out=rank.view(i64)), _u(-1, i64), out=rank.view(i64))
            index[order], u = rank, int(rank[-1]) + 1
            v[rank] = s  # the distinct patterns, in order
            fields[flat] = _fields(w[at + n :], u, flat), index
            at += 3 * u
        at += n
    buf, spare, done = w[at : at + size], w[at + size : at + 2 * size], {True: 0, False: 0}
    for lead, seps, words, groups, first in block:
        buf[: len(lead)], buf = lead, buf[len(lead) :]
        slots = buf[: len(groups[0]) * (len(seps) - 1) * (words + seps.shape[1])]
        slots, buf = slots.reshape(len(groups[0]), len(seps) - 1, -1), buf[slots.size :]
        slots[:, :, :-words] = seps[:-1]
        if first:
            slots[0, 0, :-words] = seps[-1]
        for col, g in zip(np.cumsum([0] + [g.shape[1] for g in groups]).tolist(), groups):
            src, index = fields.get(g.dtype.kind == "f", (None, None))
            start = done[g.dtype.kind == "f"]
            done[g.dtype.kind == "f"] += g.size
            for i in range(words if g.size else 0):
                src[i].take(index[start : start + g.size], out=spare[: g.size], mode="clip")
                slots[:, col : col + g.shape[1], i - words] = spare[: g.size].reshape(g.shape)
    text = w[at : at + size].view(np.uint8)
    mask = np.not_equal(text, _u(0xFF, np.uint8), out=spare.view(np.bool_))
    return str(text[mask], "utf-8", "surrogatepass")


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
