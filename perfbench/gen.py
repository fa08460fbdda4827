"""Seeded input generator for the chbez benchmark.

Everything here is plain data (JSON-ready dicts, argument lists and
numbers) built from ``random.Random`` streams keyed by the seed, so the
same seed always yields the same inputs and the program under test only
ever sees the generated documents.  Nothing in this module imports numpy
or chbez.

Jobs come in *rounds*.  Every round holds the same mix of job classes
(orders, document shapes, lattice sizes, CLI commands) in a seeded order
with seeded parameters inside each class.  Stratifying this way keeps the
mix of a run, and with it the reported medians, steady across seeds, while
each job still gets its own shape parameter and coefficients.
"""

from __future__ import annotations

import copy
import json
import math
import random
import re

# Shape parameter ranges.  The trigonometric range is the one the ROADMAP
# calls supported (alpha up to pi - 1e-3); the hyperbolic one matches the
# widest range the package's own acceptance sweep draws (alpha up to 6).
TRIG_ALPHA = (1e-2, math.pi - 1e-3)
HYP_ALPHA = (1e-2, 6.0)

# Timed jobs stay where the package does not refuse them, so that every run
# of a seed attempts and fails the same jobs.  ``subdivide`` refuses valid
# hyperbolic curves once n * alpha passes about 48 (its absolute weight floor
# trips on tiny but valid Bezier weights), and a rational trigonometric
# curve needs more elevations than the order cap allows as alpha nears pi.
# Both are kept visible by the fixed cases in ``known_defect_jobs``.
HYP_SPLIT_ORDER_ALPHA = 40.0
TRIG_RATIONAL_ALPHA_MAX = 3.0

# Highest order the package supports (degree 2n <= 64).
MAX_ORDER = 32

# curve_kernel: one job per stratum of base orders in every round.  The
# base order stays below MAX_ORDER so that the elevation step has room.
ORDER_STRATA = ((1, 4), (5, 8), (9, 12), (13, 16), (17, 20), (21, 24), (25, 28), (29, 31))
CURVE_RATIONAL_PER_ROUND = 2
CURVE_EVALUATE_PARAMS = 1001
CURVE_BASIS_PARAMS = 4001
CURVE_PIECE_PARAMS = 256

# mesh_export: every bundled surface document once per round, patches and
# volumes at lattice sizes from fixed strata (plus a small seeded jitter).
PATCH_DOCS = (
    "torus_patch",
    "star_surface",
    "rational_trigonometric_patch",
    "hyperboloidal_patch",
    "rational_hyperbolic_butterfly",
)
VOLUME_DOCS = ("trigonometric_volume_1", "trigonometric_volume_2", "hybrid_rational_volume")
PATCH_SIZES = (100, 115, 130, 145, 160)
VOLUME_SIZES = (16, 19, 22)
# Seeded size jitter of up to this share of the size (none for volumes,
# whose cost grows with the cube of the size).
SIZE_JITTER = 0.02
BUNDLED_SHARE = 0.25

# cli_oneshot: one gallery run plus five single commands per round; the
# commands cycle through a seeded order of all seven so each gets its share.
CLI_COMMANDS = ("describe", "describe-rational", "sample", "subdivide", "elevate", "xform", "basis")
CLI_SINGLE_PER_ROUND = 5
CLI_MAX_ORDER = 8
CURVE_FIGURES = (
    "hypocycloid",
    "quadrifolium",
    "torus_knot",
    "lemniscate",
    "equilateral_hyperbola",
    "rational_hyperbolic_arc_a",
    "rational_hyperbolic_arc_b",
)
RATIONAL_CURVE_FIGURES = ("lemniscate", "rational_hyperbolic_arc_a", "rational_hyperbolic_arc_b")

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def stream(seed: int, workload: str, name: str) -> random.Random:
    """Independent deterministic random stream for one purpose."""
    return random.Random(f"chbez-bench:{workload}:{seed}:{name}")


def angle_value(value) -> float:
    """Numeric value of a spec angle (number or ``pi`` literal)."""
    if isinstance(value, (int, float)):
        return float(value)
    m = _PI_RE.match(value.strip())
    if not m:
        return float(value)
    sign = -1.0 if m.group(1) == "-" else 1.0
    coeff = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    return sign * coeff * math.pi / div


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_alpha(rng: random.Random, kind: str, top_order: int, order_alpha: float = 300.0,
               rational: bool = False) -> float:
    """Log-uniform shape parameter; hyperbolic ones keep ``top_order * alpha <= order_alpha``.

    The package itself rejects hyperbolic spaces with n * alpha > 300.
    """
    if kind == "trigonometric":
        lo, hi = TRIG_ALPHA
        if rational:
            hi = min(hi, TRIG_RATIONAL_ALPHA_MAX)
    else:
        lo, hi = HYP_ALPHA
        hi = min(hi, order_alpha / top_order)
    return _log_uniform(rng, lo, hi)


def _families(kind: str) -> tuple[str, str]:
    return ("cos", "sin") if kind == "trigonometric" else ("cosh", "sinh")


def _amplitude(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0)


def curve_doc(rng: random.Random, kind: str, alpha: float, n: int, dim: int, rational: bool) -> dict:
    """A curve document whose minimum order is exactly ``n``.

    Numerator coordinates carry one to three terms of frequency at most
    ``n``; the first coordinate has a term of frequency ``n``.  A rational
    document appends the denominator ``c0 + a cos(u + phi)`` (trigonometric,
    ``c0 >= 1.5 |a|``) or ``c0 + a cosh(u) + b sinh(u)`` (hyperbolic,
    ``a > |b|``), which is positive on the whole interval by construction.
    """
    cos_name, sin_name = _families(kind)
    coords = []
    for c in range(dim):
        terms = []
        for t in range(rng.randint(1, 3)):
            k = n if (c == 0 and t == 0) else rng.randint(0, n)
            terms.append(
                {
                    "family": rng.choice((cos_name, sin_name)),
                    "k": k,
                    "a": _amplitude(rng),
                    "phase": rng.uniform(0.0, 2.0 * math.pi),
                }
            )
        coords.append({"terms": terms})
    if rational:
        if kind == "trigonometric":
            a = rng.uniform(0.2, 1.0)
            den = [
                {"family": "cos", "k": 0, "a": rng.uniform(1.5, 3.0) * a},
                {"family": "cos", "k": 1, "a": a, "phase": rng.uniform(0.0, 2.0 * math.pi)},
            ]
        else:
            a = rng.uniform(0.2, 1.0)
            den = [
                {"family": "cosh", "k": 0, "a": rng.uniform(0.2, 2.0)},
                {"family": "cosh", "k": 1, "a": a},
                {"family": "sinh", "k": 1, "a": rng.uniform(-0.9, 0.9) * a},
            ]
        coords.append({"terms": den})
    return {
        "version": 1,
        "type": "curve",
        "kind": kind,
        "alpha": alpha,
        "rational": rational,
        "coords": coords,
    }


# ---------------------------------------------------------------------------
# curve_kernel


def curve_kernel_round(rng: random.Random, previous: list[dict] | None) -> list[dict]:
    """One round of in-process curve jobs, one per order stratum.

    Every job gets a fresh kind, alpha and coefficients, except one job per
    round (after the first) that reuses the space of the job of the same
    stratum in the previous round, so the transform cache is hit on a known
    share of jobs.
    """
    strata = list(range(len(ORDER_STRATA)))
    rational = set(rng.sample(strata, CURVE_RATIONAL_PER_ROUND))
    repeat = rng.choice(strata) if previous else None
    jobs = []
    for s in strata:
        lo, hi = ORDER_STRATA[s]
        if s == repeat:
            prev = previous[s]
            kind, alpha, n = prev["doc"]["kind"], prev["doc"]["alpha"], prev["n"]
        else:
            kind = rng.choice(("trigonometric", "hyperbolic"))
            n = rng.randint(lo, hi)
            alpha = draw_alpha(rng, kind, hi, HYP_SPLIT_ORDER_ALPHA, s in rational)
        z = min(rng.randint(1, 3), MAX_ORDER - n)
        doc = curve_doc(rng, kind, alpha, n, rng.choice((2, 3)), s in rational)
        jobs.append(
            {
                "stratum": s,
                "n": n,
                "elevate_by": z,
                "split_ratio": rng.uniform(0.1, 0.9),
                "doc": doc,
            }
        )
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order]


def curve_kernel_rounds(seed: int, name: str):
    """Endless rounds of curve_kernel jobs from the stream ``name``."""
    rng = stream(seed, "curve_kernel", name)
    previous = None
    while True:
        jobs = curve_kernel_round(rng, previous)
        previous = sorted(jobs, key=lambda j: j["stratum"])
        yield jobs


# Fixed cases (kind, order, alpha, rational, document stream) that the
# package refuses although the curve is valid; see HYP_SPLIT_ORDER_ALPHA.
KNOWN_DEFECT_CASES = (
    ("hyperbolic", 12, 4.5, False, 0),
    ("hyperbolic", 20, 4.0, False, 0),
    ("hyperbolic", 31, 2.9, False, 0),
    ("hyperbolic", 14, 4.2, True, 0),
    ("trigonometric", 14, 3.135, True, 1),
)


def known_defect_jobs() -> list[dict]:
    """curve_kernel jobs on the fixed cases above; the same for every seed."""
    jobs = []
    for kind, n, alpha, rational, stream_id in KNOWN_DEFECT_CASES:
        rng = random.Random(f"chbez-bench:known-defect:{stream_id}")
        doc = curve_doc(rng, kind, alpha, n, 2, rational)
        jobs.append({"stratum": -1, "n": n, "elevate_by": 1, "split_ratio": 0.5, "doc": doc})
    return jobs


# ---------------------------------------------------------------------------
# mesh_export


def surface_variant(rng: random.Random, doc: dict) -> dict:
    """A bundled surface document with other coefficients and shape parameters.

    Numerator amplitudes are scaled by factors in [0.5, 1.5].  Shape
    parameters of non-rational documents move by up to 15 percent (kept
    inside the trigonometric range); rational documents keep their
    directions and denominator so the denominator stays positive.
    """
    out = copy.deepcopy(doc)
    numerators = out["coords"][:-1] if out.get("rational") else out["coords"]
    for coord in numerators:
        for summand in coord["summands"]:
            for factor in summand["factors"]:
                for term in factor["terms"]:
                    term["a"] = term["a"] * rng.uniform(0.5, 1.5)
    if not out.get("rational"):
        for direction in out["directions"]:
            alpha = angle_value(direction["alpha"]) * rng.uniform(0.85, 1.15)
            if direction["kind"] == "trigonometric":
                alpha = min(alpha, TRIG_ALPHA[1])
            direction["alpha"] = alpha
    return out


def mesh_export_round(rng: random.Random, figure_texts: dict[str, str], index: int) -> list[dict]:
    """Round ``index``: every bundled surface document at a stratified lattice size.

    The sizes rotate over the documents from round to round, the same way
    for every seed, so runs of the same length pair the same documents with
    the same size strata; the seed picks coefficients, variants and jitter.
    """
    jobs = []
    for docs, sizes in ((PATCH_DOCS, PATCH_SIZES), (VOLUME_DOCS, VOLUME_SIZES)):
        for i, name in enumerate(docs):
            size = sizes[(i + index) % len(sizes)]
            text = figure_texts[name]
            bundled = rng.random() < BUNDLED_SHARE
            if not bundled:
                text = json.dumps(surface_variant(rng, json.loads(text)), indent=2)
            jobs.append(
                {
                    "figure": name,
                    "bundled": bundled,
                    "size": size + rng.randint(0, int(SIZE_JITTER * size)),
                    "text": text,
                }
            )
    rng.shuffle(jobs)
    return jobs


def mesh_export_rounds(seed: int, figure_texts: dict[str, str], name: str):
    """Endless rounds of mesh_export jobs from the stream ``name``."""
    rng = stream(seed, "mesh_export", name)
    index = 0
    while True:
        yield mesh_export_round(rng, figure_texts, index)
        index += 1


# ---------------------------------------------------------------------------
# cli_oneshot


def _cli_curve_input(rng: random.Random, rational: bool) -> dict:
    """A curve input: a bundled curve figure or a generated spec file."""
    figures = RATIONAL_CURVE_FIGURES if rational else CURVE_FIGURES
    if rng.random() < 0.4:
        return {"figure": rng.choice(figures)}
    kind = rng.choice(("trigonometric", "hyperbolic"))
    n = rng.randint(1, CLI_MAX_ORDER)
    rational = rational or rng.random() < 0.25
    alpha = draw_alpha(rng, kind, CLI_MAX_ORDER, HYP_SPLIT_ORDER_ALPHA, rational)
    return {"doc": curve_doc(rng, kind, alpha, n, rng.choice((2, 3)), rational)}


def _cli_any_input(rng: random.Random) -> dict:
    """Any bundled figure (curve, patch or volume) or a generated curve."""
    if rng.random() < 0.5:
        return {"figure": rng.choice(CURVE_FIGURES + PATCH_DOCS + VOLUME_DOCS)}
    return _cli_curve_input(rng, False)


def cli_job(rng: random.Random, command: str) -> dict:
    """Command plus its input; the argv is completed once files exist."""
    job = {"command": command, "flags": []}
    if command == "gallery":
        return job
    if command in ("xform", "basis"):
        kind = rng.choice(("trigonometric", "hyperbolic"))
        n = rng.randint(1, MAX_ORDER)
        alpha = draw_alpha(rng, kind, n)
        job["flags"] = ["--kind", "trig" if kind == "trigonometric" else "hyperbolic",
                        "--alpha", repr(alpha), "--order", str(n)]
        if command == "basis":
            job["flags"] += ["--samples", str(rng.randint(50, 200))]
        job["space"] = [kind, alpha, n]
        return job
    if command == "describe":
        job["input"] = _cli_any_input(rng)
    elif command == "describe-rational":
        job["input"] = _cli_curve_input(rng, True)
    elif command == "sample":
        job["input"] = _cli_any_input(rng)
        job["samples_by_delta"] = {1: rng.randint(16, 64), 2: rng.randint(8, 24), 3: rng.randint(4, 8)}
    elif command == "subdivide":
        job["input"] = _cli_curve_input(rng, False)
        job["split_ratio"] = rng.uniform(0.1, 0.9)
    elif command == "elevate":
        job["input"] = _cli_curve_input(rng, False)
        job["elevate_by"] = rng.randint(1, 3)
    return job


def cli_oneshot_rounds(seed: int, name: str):
    """Endless rounds of cli_oneshot jobs from the stream ``name``."""
    rng = stream(seed, "cli_oneshot", name)
    cycle = list(CLI_COMMANDS)
    rng.shuffle(cycle)
    position = 0
    while True:
        commands = ["gallery"]
        for _ in range(CLI_SINGLE_PER_ROUND):
            commands.append(cycle[position % len(cycle)])
            position += 1
        rng.shuffle(commands)
        yield [cli_job(rng, c) for c in commands]
