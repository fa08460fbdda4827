"""The vectorized row formatter of the exporters, for tables of many cells.

:func:`format_rows` prints a document of literal strings and tables (see
``chbez.io._format_rows``, which calls it for documents of at least
``_VECTOR_CELLS`` cells and prints smaller ones through ``repr`` and ``%d``)
with numpy integer arithmetic on blocks of up to ``_BLOCK_CELLS`` cells.
Finite floats, in either form, and integer ids get their digits from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020;
:func:`_shortest`); the other values (``nan``, ``inf``, ``-inf``) still go
through ``repr``.  A block formats each distinct 64-bit pattern among its
float cells once (so ``0.0`` and ``-0.0`` stay apart, as do NaNs of
different payloads) and gathers its field into every cell that holds it.
Every step writes with ``out=`` into one scratch buffer that all blocks of
a call reuse, at most 14 words a cell, 1.1 MB for a block.  The text is
byte for byte that of ``repr`` and ``%d``.
"""

from functools import cache

import numpy as np

# Cells per block of :func:`format_rows`: the largest block whose scratch,
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


def format_rows(items) -> list[str]:
    """Text of a document of ``chbez.io._format_rows``, as strings to join.

    The tables are cut at row ends into blocks of at most ``_BLOCK_CELLS``
    cells (or one row), small tables sharing a block, and each block is
    printed by :func:`_render` in scratch words that every block of the call
    reuses.  When the integers of a call are ids ``0..n`` in more cells than
    ids, each id is formatted once and its field copied to every cell that
    holds it.
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
    """Text of a block of :func:`format_rows`: its ``(lead, seps, words, groups, first)`` parts.

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
