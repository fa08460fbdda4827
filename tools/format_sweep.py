"""Compare the exporters' vectorized row formatter with ``repr`` and ``%d`` on many values.

Prints, through ``chbez._vectorized.format_rows`` (the formatter of every
export of many cells, called directly, whatever the size of its input),
every notation class (powers of two and of ten, the first subnormals, both
sides of each switch between fixed and exponent form, integers, zeros and
non-finite values, each with both signs) and then ``count`` seeded random
64-bit patterns read as doubles, in chunks of 2**20.  Each chunk is
printed one value a line, as OBJ vertex rows of 3 and as CSV rows of 5,
so cells meet literals of several lengths, and each line is compared with
``repr``.  Each chunk is printed once more with every value twice, at
shuffled positions, as OBJ and CSV rows, so the formatter's blocks format
each distinct bit pattern once and gather it into every cell that holds
it.  Two chunks shorter
than one 10,240-cell block put ``0.0``, ``-0.0``, NaNs of several payloads
and both signs, and ``+-inf`` into one block; in the second no value but
``-0.0`` is negative, so the two zeros are neighbours in bit order, where a
dedupe that compares float values instead of bit patterns merges them.
Then it prints integers of every length from 1 to 17 digits, ``10**17`` and up and
negative ones (both printed through ``repr``), and small ids that are
formatted once each, in the same three layouts, and compares them with
``%d``.  On the first mismatch it prints the value and exits 1; otherwise
it prints how many values matched.  Uses numpy and the standard library
only.  Run from the root of the repository:
``python3 tools/format_sweep.py [count [seed]]`` (defaults 1000000 and 0).
"""

import itertools
import sys

import numpy as np

sys.path.insert(0, "src")
from chbez._vectorized import format_rows

CHUNK = 2**20
# Row pieces: one value a line, OBJ vertex rows and CSV rows.
LAYOUTS = (("", "\n"), ("v ", " ", " ", "\n"), ("", ",", ",", ",", ",", "\n"))


def notation_classes() -> np.ndarray:
    """Doubles of every notation class, with both signs."""
    switches = np.array([1e-4, 1e16, 2.0**53, 1.0, 0.1])
    values = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{k}") for k in range(-323, 309)],
        np.arange(1, 4097, dtype=np.uint64).view(np.float64),
        switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
        np.arange(100001.0), np.arange(1, 100001) / 1024.0,
        [0.0, np.nan, np.inf, 5e-324, 8e-323, 2.2250738585072014e-308, 1.7976931308623157e308],
    ])
    return np.concatenate([values, -values])


def edge_blocks(rng) -> list[np.ndarray]:
    """Zeros of both signs, NaNs of several payloads and infinities among other values.

    Each array fits in one block of the formatter.
    """
    quiet, signalling = 0x7FF8 << 48, (0x7FF0 << 48) + 1
    nans = np.array([quiet, quiet + 1, signalling, 2**63 - 1], dtype=np.uint64)
    nans = np.concatenate([nans, nans | np.uint64(2**63)]).view(np.float64)
    mixed = np.concatenate([np.repeat([0.0, -0.0, np.inf, -np.inf, *nans], 200),
                            rng.standard_normal(600)])
    # Negative values other than -0.0 would sit between the two zeros in bit order.
    signless = np.concatenate([np.repeat([0.0, -0.0, np.inf, *nans[:4]], 300),
                               np.abs(rng.standard_normal(600))])
    return [rng.permutation(mixed), rng.permutation(signless)]


def integers(rng) -> np.ndarray:
    """Integers of every length from 1 to 17 digits, from 10**17 up, and negative ones."""
    ends = [10**d for d in range(18)]
    values = [0, 2**63 - 1, -(2**63), *ends, *(e - 1 for e in ends), *(-e for e in ends)]
    for d in range(1, 18):
        values += rng.integers(10 ** (d - 1), 10**d, 64).tolist()
    return np.array(values + rng.integers(10**17, 2**63 - 1, 64).tolist(), dtype=np.int64)


def reference(values: np.ndarray) -> list[str]:
    """``repr`` of each float and ``%d`` of each integer."""
    return [repr(x) if isinstance(x, float) else "%d" % x for x in values.tolist()]


def first_mismatch(values: np.ndarray, texts: list[str], layouts=LAYOUTS):
    """The first value whose text differs from its reference ``texts`` in some layout, or None."""
    for pieces in layouts:
        width = len(pieces) - 1
        n = len(values) // width * width
        text = "".join(format_rows([(pieces, values[:n].reshape(-1, width))]))
        # No value's text holds a space, a comma or "v ", so the rows split back into lines.
        lines = text.replace("v ", "").replace(" ", "\n").replace(",", "\n")
        if lines != "".join(t + "\n" for t in texts[:n]):
            got = lines.split("\n")
            return next((x, g) for x, t, g in zip(values.tolist(), texts, got) if g != t)
    return None


def main(count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    sizes = (min(CHUNK, count - start) for start in range(0, count, CHUNK))
    randoms = (rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64) for n in sizes)
    ids = np.random.default_rng(seed).integers(0, 5000, 20000)  # formatted once each
    checked, shuffle = 0, np.random.default_rng(seed + 1)
    edges = edge_blocks(np.random.default_rng(seed + 2))
    for values in itertools.chain([notation_classes()], edges, randoms, [integers(rng), ids]):
        texts, order = reference(values), shuffle.permutation(2 * len(values))
        twice, both = np.concatenate([values, values])[order], texts * 2
        bad = first_mismatch(values, texts) or first_mismatch(
            twice, [both[i] for i in order.tolist()], LAYOUTS[1:])
        if bad is not None:
            x, line = bad
            bits = int(np.array([x]).view(np.uint64)[0]) if isinstance(x, float) else x
            print(f"mismatch: {x!r} (bits {bits:#018x}) printed as {line!r}")
            return 1
        checked += len(values)
    print(f"{checked} values print as repr and %d, alone and repeated")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*(args + [1000000, 0][len(args):])))
