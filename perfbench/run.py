"""chbez benchmark: three closed-loop workloads with end-to-end and per-layer metrics.

Usage (from the root of a chbez checkout)::

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``jobs_per_s``,
``job_p50_ms``, ``job_p90_ms``, ``peak_rss_mb``); ``--trace 1`` runs the
same workload with every other round traced and prints the per-layer
self-time table and metrics instead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, with an environment stamp, and the spans of a traced
run are written under ``.bench_out/`` in the checkout.

The package is imported from this checkout's ``src/`` only; without it the
benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli_oneshot", "mesh_export", "curve_kernel")
# CPUs this process may use before it pins itself to one of them.
NPROC = len(os.sched_getaffinity(0))

# Set-up is timed in this many fresh processes per run; setup_s is their median.
SETUP_PROBES = 5
# Warm-up jobs come from this seed in every run, so set-up does the same
# work whatever the run's seed.
WARMUP_SEED = 0
# Every time the benchmark reports is scaled to a reference host speed.  On a
# shared host the speed drifts by more than the bounds (the calibration
# kernel below took 0.4 to 1.4 ms within minutes on a 2-vCPU VM, and job
# times moved with it), so the kernel is timed right before and right after
# every timed interval and the interval is multiplied by
# CALIBRATION_REFERENCE_S / (mean of the two kernel times).  The kernel does
# the kinds of work the package does (small numpy operations, a Python loop,
# float formatting) and nothing of the package itself.
CALIBRATION_REFERENCE_S = 0.5e-3
CALIBRATION_REPEATS = 3
# Work done in fresh processes (a CLI job, a set-up probe) is mostly
# interpreter start and imports, which a slow phase of the host slows by
# about half as much as the kernel above.  Such times are scaled instead by
# a fresh "python -c 'import numpy'" (the floor of every CLI job), timed
# before and after each set-up probe and each round of CLI jobs, against
# PROCESS_REFERENCE_S.
PROCESS_REFERENCE_S = 0.25


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts, on one CPU.

    The calibration then times the CPU the jobs run on: a CLI child left
    free would run on another CPU of the shared host, whose speed differs.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics.  "<span>_ms" is the self time of that span per traced
# job; other names are counters per traced job, except the ratios and the
# two fresh-process timings of the cli layer.
PER_LAYER = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms/job"),
    ("gallery.run_gallery_ms", "ms/job"),
    ("io.parse_document_ms", "ms/job"),
    ("io.parse_document_calls", "count/job"),
    ("io.export_svg_ms", "ms/job"),
    ("io.export_svg_bytes", "B/job"),
    ("io.export_obj_ms", "ms/job"),
    ("io.export_obj_vertices", "count/job"),
    ("io.export_obj_bytes", "B/job"),
    ("io.export_table_ms", "ms/job"),
    ("io.export_table_values", "count/job"),
    ("surface.exact_surface_ms", "ms/job"),
    ("surface.exact_rational_surface_ms", "ms/job"),
    ("surface.elevation_steps", "count/job"),
    ("surface.sample_lattice_ms", "ms/job"),
    ("surface.sample_lattice_points", "count/job"),
    ("xform.transform_matrix_ms", "ms/job"),
    ("xform.transform_matrix_calls", "count/job"),
    ("xform.repeat_space_ratio", "ratio"),
    ("bbasis.basis_matrix_ms", "ms/job"),
    ("bbasis.basis_matrix_params", "count/job"),
    ("exact.exact_curve_ms", "ms/job"),
    ("exact.exact_rational_curve_ms", "ms/job"),
    ("exact.elevation_steps", "count/job"),
    ("curve.evaluate_ms", "ms/job"),
    ("curve.evaluate_params", "count/job"),
    ("curve.elevate_ms", "ms/job"),
    ("curve.subdivide_ms", "ms/job"),
    ("curve.piece_evaluate_ms", "ms/job"),
    ("curve.piece_evaluate_params", "count/job"),
    ("trace.overhead_ratio", "ratio"),
)


def bootstrap() -> float:
    """Import chbez from this checkout's ``src/``; returns the import time in s."""
    package = SRC / "chbez" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run the benchmark inside a chbez checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import chbez.cli

    elapsed = time.perf_counter() - start
    if Path(chbez.__file__).resolve() != package.resolve():
        sys.exit(f"error: chbez imported from {chbez.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    """Stamp that keeps numbers from different machines apart."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "platform": platform.platform(),
    }


def calibration_s() -> float:
    """Best of a few timings of the fixed calibration kernel, in seconds."""
    import numpy as np

    base = np.arange(64.0)
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        x, acc, text = base, 0.0, []
        for i in range(150):
            x = x[1:] * 0.5 + x[:-1] * 0.5 if x.size > 8 else base
            acc += i * 0.5
            if i % 4 == 0:
                text.append(f"{acc * 1.000001:.17g}")
        best = min(best, time.perf_counter() - start)
    return best


def process_calibration_s() -> float:
    """Wall time of a fresh interpreter importing numpy, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float, reference: float = CALIBRATION_REFERENCE_S) -> float:
    """A time taken between two calibrations, at the reference host speed."""
    return seconds * reference / (0.5 * (before + after))


def round_count(workload_class, seconds: float, trace: bool) -> int:
    """Rounds whose nominal job time at the reference speed adds up to ``seconds``.

    A run does this fixed amount of work, so a seed always attempts the same
    jobs, and both sides of a comparison measure the same work.
    """
    return max(2 if trace else 1, round(seconds / workload_class.nominal_round_s))


class Run:
    """Set-up, timed loop and checks of one workload in this process."""

    def __init__(self, args, workdir: Path):
        import jobs
        import spans

        self.jobs, self.spans = jobs, spans
        workload_class = jobs.WORKLOADS[args.workload]
        self.workload = workload_class(args.seed, workdir)
        source = self.workload.rounds(args.seed, "jobs")
        self.pool = [[self.workload.prepare(job) for job in next(source)]
                     for _ in range(round_count(workload_class, args.seconds, bool(args.trace)))]
        self.plain = jobs.Layers(None)
        self.tracer = spans.Tracer(getattr(self.workload, "seen_spaces", None))
        self.traced = jobs.Layers(self.tracer)
        # Raw times of the fresh-interpreter calibrations taken by this run.
        self.process_calibrations: list[float] = []
        for warm in self.workload.warmup_rounds(WARMUP_SEED):
            for job in warm:
                job = self.workload.prepare(job)
                try:
                    self.workload.check(job, self.workload.run(job, self.plain, None))
                except Exception:
                    # Warm-up only loads code and data; its jobs are not counted.
                    pass

    def attempt(self, job, layers, tracer=None) -> tuple[dict, dict | None]:
        """Run one job and check it; returns (record, output).

        In-process jobs are timed between two kernel calibrations; the scale
        of a job run in a fresh process is set by ``measure`` for its round.
        """
        from checks import CheckFailure

        refusals = self.jobs.REFUSALS
        kernel = not self.workload.runs_processes
        before = calibration_s() if kernel else None
        root = tracer.open(self.spans.JOB) if tracer else None
        start = time.perf_counter()
        refused = False
        try:
            out, error = self.workload.run(job, layers, tracer), None
        except refusals as exc:
            out, error, refused = None, f"{type(exc).__name__}: {exc}", True
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        after = calibration_s() if kernel else None
        if out is not None:
            if tracer and hasattr(self.workload, "absorb_spans"):
                self.workload.absorb_spans(out, tracer, root)
            try:
                self.workload.check(job, out)
            except refusals as exc:
                error, refused = str(exc), True
            except CheckFailure as exc:
                error = str(exc)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        scale = CALIBRATION_REFERENCE_S / (0.5 * (before + after)) if kernel else None
        record = {"latency": latency, "scaled": latency * scale if kernel else None, "scale": scale,
                  "error": error, "refused": refused, "traced": tracer is not None,
                  "props": self.workload.properties(job)}
        if out is not None and "rss_kb" in out:
            record["rss_kb"] = out["rss_kb"]
        return record, out

    def measure(self, trace: bool):
        """Run every round of the pool once, the odd ones traced when ``trace``."""
        records = []
        rss_kb = None
        processes = self.workload.runs_processes
        before = process_calibration_s() if processes else None
        for round_index, jobs in enumerate(self.pool):
            traced = trace and round_index % 2 == 1
            layers = self.traced if traced else self.plain
            first = len(records)
            for job in jobs:
                if traced:
                    self.tracer.job = len(records)
                record, out = self.attempt(job, layers, self.tracer if traced else None)
                records.append(record)
                del out
                if len(records) == self.workload.rss_after_jobs:
                    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if processes:
                after = process_calibration_s()
                self.process_calibrations += [before, after] if first == 0 else [after]
                scale = PROCESS_REFERENCE_S / (0.5 * (before + after))
                for record in records[first:]:
                    record["scale"], record["scaled"] = scale, record["latency"] * scale
                before = after
            self.pool[round_index] = None
        if self.workload.rss_after_jobs is None:
            rss_kb = max((r["rss_kb"] for r in records if not r["traced"] and "rss_kb" in r), default=0)
        elif rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return records, rss_kb / 1024.0

    def known_defects(self) -> list[dict]:
        """Untimed run of the workload's fixed known-defect cases, if it has any."""
        cases = getattr(self.workload, "known_defect_jobs", lambda: [])()
        outcomes = []
        for job in cases:
            record, _ = self.attempt(job, self.plain)
            outcomes.append({"case": self.workload.describe(job), "error": record["error"],
                             "refused": record["refused"]})
        return outcomes


def _child_argv(args, workload: str, *extra) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), *extra]


def setup_probes(args) -> tuple[list[float], list[float], list[float]]:
    """Time set-up in fresh processes: process start until ready for the first job.

    Returns the set-up times at the reference speed, the raw import times
    the probes report and the raw times of the process calibrations.
    """
    setups, imports = [], []
    calibrations = [process_calibration_s()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(_child_argv(args, args.workload, "--setup-probe"), stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        calibrations.append(process_calibration_s())
        setups.append(scaled(ready - start, calibrations[-2], calibrations[-1], PROCESS_REFERENCE_S))
        imports.append(json.loads(line)["import_s"])
    return setups, imports, calibrations


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end_metrics(records, setups, rss_mb, key="scaled") -> dict:
    """The end-to-end metrics from job times ``key`` ("scaled" or raw "latency")."""
    ok = [r[key] * 1e3 for r in records if r["error"] is None]
    if not ok:
        raise RuntimeError("no job completed; nothing to report")
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(ok) / sum(r[key] for r in records),
        "job_p50_ms": statistics.median(ok),
        "job_p90_ms": _p90(ok),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(run: Run, records, imports, interpreters) -> dict:
    spans = run.spans
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    per_job = 1.0 / max(1, len(traced))
    scales = [r["scale"] for r in records]
    selfs = spans.self_times(run.tracer.spans, scales)
    counts = run.tracer.counts
    child_imports = [(end - start) * scales[job] for name, start, end, _, job in run.tracer.spans
                     if name == spans.CLI_IMPORT]
    calls = counts.get("xform.transform_matrix_calls", 0.0)
    mean = statistics.fmean
    special = {
        "cli.interpreter_ms": statistics.median(interpreters) * 1e3,
        "cli.import_ms": statistics.median(child_imports or imports) * 1e3,
        "xform.repeat_space_ratio": counts.get("xform.repeat_calls", 0.0) / calls if calls else 0.0,
        "trace.overhead_ratio": (mean(r["scaled"] for r in traced) / mean(r["scaled"] for r in plain)
                                 if traced and plain else 1.0),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith("_ms"):
            value = selfs.get(name[:-3], 0.0) * 1e3 * per_job
        else:
            value = counts.get(name, 0.0) * per_job
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def self_time_table(run: Run, records) -> list[str]:
    """Per-layer self time per traced job, largest first, with what it should move."""
    traced = [r for r in records if r["traced"]]
    total = sum(r["scaled"] for r in traced)
    selfs = run.spans.self_times(run.tracer.spans, [r["scale"] for r in records])
    moves = json.loads((HERE / "layer_map.json").read_text())
    lines = [f"{'layer (self time)':34} {'ms/job':>10} {'share':>7}  should move",
             "-" * 100]
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        label = "job (outside the wrapped calls)" if name == run.spans.JOB else name
        target = moves.get(f"{name}_ms", {}).get("moves", "")
        lines.append(f"{label:34} {seconds * 1e3 / max(1, len(traced)):10.3f} "
                     f"{100.0 * seconds / total if total else 0.0:6.1f}%  {target}")
    return lines


def shares(records) -> dict:
    """Measured share of jobs with each input property (base: attempted jobs)."""
    keys = sorted({k for r in records for k in r["props"]})
    return {k: sum(1 for r in records if r["props"].get(k)) / len(records) for k in keys}


def run_one(args) -> int:
    pin_to_one_cpu()
    import_s = bootstrap()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            Run(args, workdir)
            print(json.dumps({"import_s": import_s}), flush=True)
            return 0
        setups, imports, interpreters = setup_probes(args)
        run = Run(args, workdir)
        records, rss_mb = run.measure(bool(args.trace))
        defects = run.known_defects()
        interpreters += run.process_calibrations
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"] is not None]
    wrong = [r for r in failed if not r["refused"]]
    # A known-defect case is outside the timed jobs and their counts, but a
    # wrong output there is still a wrong output.
    wrong_defects = [d for d in defects if d["error"] is not None and not d["refused"]]
    if args.trace:
        metrics = per_layer_metrics(run, records, imports, interpreters)
    else:
        metrics = end_to_end_metrics(records, setups, rss_mb)
    env = environment()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": len(records),
        "failed": len(failed),
        "wrong": len(wrong),
        "traced_jobs": sum(1 for r in records if r["traced"]),
        "shares": shares(records),
        "setup_probe_s": setups,
        "import_probe_s": imports,
        "checks": run.workload.summary(),
        "failures": sorted({r["error"] for r in failed})[:20],
        "known_defects": defects,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "median_scale": statistics.median(r["scale"] for r in records),
        "metrics": metrics,
    }
    if not args.trace:
        result["unscaled_metrics"] = end_to_end_metrics(records, setups, rss_mb, key="latency")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        run.spans.write(OUT / f"{stem}-spans.json", run.tracer.dump())
        print("\n".join(self_time_table(run, records)))

    print(f"{args.workload} seed {args.seed}: {len(records)} jobs attempted, {len(failed)} failed "
          f"({100.0 * len(failed) / len(records):.1f}% of attempted), {len(wrong)} with wrong output")
    for error in result["failures"][:5]:
        print(f"  failure: {error}")
    for defect in defects:
        print(f"  known-defect case {defect['case']}: {defect['error'] or 'passes its check'}")
    print(f"  times scaled to the reference speed; median scale {result['median_scale']:.3f}")
    for name, entry in metrics.items():
        print(f"  {name:34} {entry['value']:14.6g} {entry['unit']}")
    print("  shares: " + ", ".join(f"{k} {v:.3f}" for k, v in result["shares"].items()))
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(json.dumps({"correct": not (wrong or wrong_defects), "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(_child_argv(args, name), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="nominal job time of the run at the reference speed; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
