"""In-process A/B timing of the curve_kernel job stream on two chbez source trees.

Usage, from the root of the repository::

    python3 tools/kernel_ab.py BASE_SRC CHANGE_SRC [--seed S --jobs N --reps R]

``BASE_SRC`` and ``CHANGE_SRC`` are directories that hold a ``chbez``
package (``src`` of two checkouts, say).  Both trees are copied into a
temporary directory as the packages ``chbez_base`` and ``chbez_change`` and
imported side by side in this one process.  The jobs are those of the
``curve_kernel`` workload, drawn from ``perfbench/gen.py`` (imported, never
changed) with the benchmark's timed stream name: the transform matrix, the
exact (or rational) description and its first derivative, a basis table,
evaluation, elevation, subdivision and both piece evaluations.  Repetition
``r`` runs jobs ``r N .. (r + 1) N - 1`` of that stream, so every
repetition meets fresh spaces, as the benchmark does.

Each job runs on both sides, the side that goes first alternating from job
to job, so that drift of the host hits both alike; separate processes on a
shared host drift far more than the few percent a kernel change moves.
Every output array (and every refusal's type and text) of the two sides is
compared bit for bit; the script exits 1 at the first difference.  Otherwise
it prints, per layer, the median over repetitions of the mean ms per job of
each side and their ratio, then the change/base ratio of the job time of
every repetition, and exits 0.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

SIDES = ("base", "change")
LAYERS = ("transform_matrix", "exact", "basis_matrix", "evaluate", "elevate", "subdivide",
          "piece_evaluate")


def load(src: Path, name: str, root: Path):
    """The package ``src/chbez`` imported from a copy under ``root`` as ``name``."""
    shutil.copytree(src / "chbez", root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def spec_of(pkg, doc: dict):
    families = {"cos": pkg.TermFamily.COSINE, "cosh": pkg.TermFamily.COSINE,
                "sin": pkg.TermFamily.SINE, "sinh": pkg.TermFamily.SINE}
    coords = tuple(
        pkg.CoordinateFunction(tuple(
            pkg.Term(families[t["family"]], t["k"], t["a"], t.get("phase", 0.0)) for t in c["terms"]
        ))
        for c in doc["coords"]
    )
    return pkg.CurveSpec(pkg.BasisKind(doc["kind"]), doc["alpha"], coords)


def run_job(pkg, job: dict, spec, spent: dict) -> list:
    """One curve_kernel job on its spec; adds each layer's seconds to ``spent``.

    Returns the outputs; a refusal ends the job and is itself the last output.
    """
    outputs = []
    clock = time.perf_counter

    def timed(layer, fn, *args):
        start = clock()
        try:
            return fn(*args)
        finally:
            spent[layer] += clock() - start

    try:
        n = job["n"]
        space = spec.space(n)
        outputs.append(timed("transform_matrix", pkg.transform_matrix, space).rows)
        if job["doc"]["rational"]:
            curve = timed("exact", pkg.exact_rational_curve, spec, n).curve
        else:
            curve = timed("exact", pkg.exact_curve, spec, n)
        outputs += [curve.points, curve.weights]
        outputs.append(timed("exact", pkg.exact_curve, spec, n, 1).points)
        params = np.linspace(0.0, spec.alpha, gen.CURVE_BASIS_PARAMS)
        outputs.append(timed("basis_matrix", pkg.basis_matrix, space, params))
        us = np.linspace(0.0, spec.alpha, gen.CURVE_EVALUATE_PARAMS)
        outputs.append(timed("evaluate", pkg.evaluate, curve, us))
        z = min(job["elevate_by"], gen.MAX_ORDER - curve.space.n)
        elevated = timed("elevate", pkg.elevate, curve, z)
        outputs += [elevated.points, elevated.weights]
        parts = timed("subdivide", pkg.subdivide, curve, job["split_ratio"] * spec.alpha)
        outputs.append(parts.split_ratio)
        for piece in (parts.left, parts.right):
            lo, hi = piece.u_interval
            outputs += [piece.points, piece.weights, lo, hi]
            piece_us = np.linspace(lo, hi, gen.CURVE_PIECE_PARAMS)
            outputs.append(timed("piece_evaluate", piece.evaluate, piece_us))
    except (pkg.NumericalError, pkg.RangeError) as exc:
        outputs.append(f"{type(exc).__name__}: {exc}")
    return outputs


def same(a, b) -> bool:
    """Bit-for-bit equality of two outputs (arrays by shape, dtype and bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape
                and a.dtype == b.dtype and a.tobytes() == b.tobytes())
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=400, help="jobs per repetition")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="kernel_ab_") as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(src, f"chbez_{side}", Path(tmp))
                for side, src in zip(SIDES, (args.base_src, args.change_src))}
        warmup = next(gen.curve_kernel_rounds(args.seed, "warmup"))
        for job, side in itertools.product(warmup, SIDES):
            run_job(pkgs[side], job, spec_of(pkgs[side], job["doc"]), dict.fromkeys(LAYERS, 0.0))
        stream = itertools.chain.from_iterable(gen.curve_kernel_rounds(args.seed, "jobs"))
        per_rep = []  # per repetition: side -> layer -> ms per job
        for rep in range(args.reps):
            spent = {side: dict.fromkeys(LAYERS + ("job",), 0.0) for side in SIDES}
            gc.collect()
            for index, job in enumerate(itertools.islice(stream, args.jobs)):
                results = {}
                # The spec is built untimed, as the benchmark prepares its jobs.
                specs = {side: spec_of(pkgs[side], job["doc"]) for side in SIDES}
                for side in SIDES[:: 1 - 2 * (index % 2)]:
                    start = time.perf_counter()
                    results[side] = run_job(pkgs[side], job, specs[side], spent[side])
                    spent[side]["job"] += time.perf_counter() - start
                base, change = results["base"], results["change"]
                diff = next((k for k, (a, b) in enumerate(zip(base, change)) if not same(a, b)),
                            None if len(base) == len(change) else min(len(base), len(change)))
                if diff is not None:
                    print(f"output {diff} of job {rep * args.jobs + index} differs "
                          f"({job['doc']['kind']} n={job['n']} alpha={job['doc']['alpha']!r})")
                    return 1
            per_rep.append({side: {layer: 1e3 * t / args.jobs for layer, t in times.items()}
                            for side, times in spent.items()})
    print(f"curve_kernel seed {args.seed}: {args.reps} x {args.jobs} jobs, outputs bit-identical")
    print(f"{'layer':<18}{'base ms/job':>13}{'change ms/job':>15}{'change/base':>13}")
    for layer in LAYERS + ("job",):
        base, change = (statistics.median(r[side][layer] for r in per_rep) for side in SIDES)
        ratio = f"{change / base:13.3f}" if base > 0.0 else f"{'-':>13}"
        print(f"{layer:<18}{base:13.4f}{change:15.4f}{ratio}")
    ratios = [r["change"]["job"] / r["base"]["job"] for r in per_rep]
    print("job change/base per repetition: " + " ".join(f"{x:.3f}" for x in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
