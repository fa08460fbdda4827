"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repo root.

They run tiny versions of every workload through the same prepare/run/check
path the timed loop uses, check the output contract of ``run.py``, and make
sure that a deliberately broken output is reported as a failed job.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from chbez import ControlCurve, evaluate  # noqa: E402


@pytest.fixture
def workdir():
    path = ROOT / ".bench_out" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(workload, job):
    """Shrink a prepared job so the smoke runs stay fast."""
    if workload.name == "mesh_export":
        job["size"] = 5 if job["figure"] in gen.VOLUME_DOCS else 9
    return job


def first_round(workload, seed=7):
    return [tiny(workload, workload.prepare(j)) for j in next(workload.rounds(seed, "jobs"))]


def test_generator_is_deterministic_per_seed():
    a = next(gen.curve_kernel_rounds(3, "jobs"))
    b = next(gen.curve_kernel_rounds(3, "jobs"))
    c = next(gen.curve_kernel_rounds(4, "jobs"))
    assert a == b
    assert a != c
    assert sorted(j["stratum"] for j in a) == list(range(len(gen.ORDER_STRATA)))


def test_a_run_does_a_fixed_number_of_rounds():
    curve = jobs.WORKLOADS["curve_kernel"]
    assert run.round_count(curve, 10 * curve.nominal_round_s, False) == 10
    assert run.round_count(curve, 0.0, False) == 1
    assert run.round_count(curve, 0.0, True) == 2


def test_scaling_to_the_reference_speed():
    ref = run.CALIBRATION_REFERENCE_S
    assert run.scaled(0.2, ref, ref) == pytest.approx(0.2)
    assert run.scaled(0.2, 2 * ref, 2 * ref) == pytest.approx(0.1)
    assert run.calibration_s() > 0


def test_timed_curves_stay_where_the_package_does_not_refuse():
    rounds = gen.curve_kernel_rounds(11, "jobs")
    for _ in range(50):
        for job in next(rounds):
            doc = job["doc"]
            if doc["kind"] == "hyperbolic":
                assert job["n"] * doc["alpha"] <= gen.HYP_SPLIT_ORDER_ALPHA
            elif doc["rational"]:
                assert doc["alpha"] <= gen.TRIG_RATIONAL_ALPHA_MAX
    for job in gen.known_defect_jobs():
        doc = job["doc"]
        outside = (job["n"] * doc["alpha"] > gen.HYP_SPLIT_ORDER_ALPHA if doc["kind"] == "hyperbolic"
                   else doc["alpha"] > gen.TRIG_RATIONAL_ALPHA_MAX)
        assert outside
    assert gen.known_defect_jobs() == gen.known_defect_jobs()


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_tiny_smoke_run_of_each_workload(name, workdir):
    workload = jobs.WORKLOADS[name](7, workdir)
    tracer = spans.Tracer(getattr(workload, "seen_spaces", None))
    layers = jobs.Layers(tracer)
    wrong = []
    for index, job in enumerate(first_round(workload)):
        tracer.job = index
        root = tracer.open(spans.JOB)
        try:
            out = workload.run(job, layers, tracer)
        except jobs.REFUSALS:
            tracer.close(root)
            continue
        tracer.close(root)
        if hasattr(workload, "absorb_spans"):
            workload.absorb_spans(out, tracer, root)
        try:
            workload.check(job, out)
        except checks.Refused:
            pass
        except checks.CheckFailure as exc:
            wrong.append(str(exc))
    assert wrong == []
    names = {span[0] for span in tracer.spans}
    assert spans.JOB in names and len(names) > 2
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def curve_output(seed=5):
    workload = jobs.CurveKernel(seed, None)
    plain = jobs.Layers(None)
    for job in first_round(workload, seed):
        if job["rational"] or job["n"] < 3:
            continue
        try:
            return workload, job, workload.run(job, plain, None)
        except jobs.REFUSALS:
            continue
    raise AssertionError("no polynomial curve job in the first round")


def test_intact_curve_output_passes():
    workload, job, out = curve_output()
    workload.check(job, out)


def test_perturbed_control_point_is_a_failed_job():
    workload, job, out = curve_output()
    curve = out["curve"]
    points = np.array(curve.points)
    middle = len(points) // 2
    points[middle] += 1e-6 * (1.0 + np.abs(points).max())
    broken = ControlCurve(curve.space, points)
    out = dict(out, curve=broken, values=evaluate(broken, out["us"]))
    with pytest.raises(checks.CheckFailure, match="reconstruction"):
        workload.check(job, out)


def mesh_output(workdir):
    workload = jobs.MeshExport(5, workdir)
    job = first_round(workload, 5)[0]
    return workload, job, workload.run(job, jobs.Layers(None), None)


def test_truncated_obj_is_a_failed_job(workdir):
    workload, job, out = mesh_output(workdir)
    workload.check(job, out)
    truncated = out["obj"][: len(out["obj"]) // 2]
    with pytest.raises(checks.CheckFailure, match="obj"):
        workload.check(job, dict(out, obj=truncated))


def test_csv_that_does_not_round_trip_is_a_failed_job(workdir):
    workload, job, out = mesh_output(workdir)
    data = out["data"].copy()
    data[-1, -1] = np.nextafter(data[-1, -1], np.inf)
    with pytest.raises(checks.CheckFailure, match="csv"):
        workload.check(job, dict(out, data=data))


def run_bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def test_result_line_lists_every_end_to_end_metric():
    proc = run_bench("--workload", "curve_kernel", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_cli_run_lists_every_layer_metric():
    proc = run_bench("--workload", "cli_oneshot", "--seed", "2", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in benchmark["per_layer"]} == set(result["metrics"])
    assert {m["name"] for m in benchmark["end_to_end"]} == {name for name, _ in run.END_TO_END}


def test_without_the_package_the_benchmark_fails_without_a_result():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("--workload", "mesh_export", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
