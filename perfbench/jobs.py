"""The three workloads: how a job runs (timed) and how it is checked (not timed).

Each workload turns generated rounds (see ``gen.py``) into prepared jobs
during set-up, runs one job at a time through a :class:`Layers` namespace
(the plain public functions, or traced wrappers of them) and checks the
job's outputs afterwards.  Every workload is a closed loop with a single
client: the next job starts when the previous one, and its check, ended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import chbez
import chbez.cli
from chbez import (
    BasisKind,
    BezierPiece,
    CoordinateFunction,
    CurveSpec,
    Term,
    TermFamily,
    figure_names,
    load_figure_text,
    run_gallery,
)

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIGURES = SRC / "chbez" / "figures"


# The package's documented errors: a job ending in one of them was refused,
# which counts as failed but not as a wrong output.
REFUSALS = (chbez.NumericalError, chbez.RangeError, chbez.SpecError, checks.Refused)


class Layers:
    """The public functions a job calls, traced or not.

    Attribute names are the functions' own names; with a tracer every call
    records its layer span and counters, without one the attributes are the
    package's functions themselves, so untimed rounds pay nothing.
    """

    def __init__(self, tracer: spans.Tracer | None):
        for name, (_, attr) in spans.LAYERS.items():
            fn = spans.public_function(name)
            setattr(self, attr, tracer.wrap(name, fn) if tracer else fn)
        piece = BezierPiece.evaluate
        self.piece_evaluate = tracer.wrap(spans.PIECE_EVALUATE, piece) if tracer else piece


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, stdout_path: Path, stderr_path: Path, env: dict):
    """Run a child to completion; returns (exit code, its rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _curve_spec(doc: dict) -> CurveSpec:
    kind = BasisKind(doc["kind"])
    families = {"cos": TermFamily.COSINE, "cosh": TermFamily.COSINE,
                "sin": TermFamily.SINE, "sinh": TermFamily.SINE}
    coords = tuple(
        CoordinateFunction(tuple(
            Term(families[t["family"]], t["k"], t["a"], t.get("phase", 0.0)) for t in c["terms"]
        ))
        for c in doc["coords"]
    )
    return CurveSpec(kind, doc["alpha"], coords)


# ---------------------------------------------------------------------------
# curve_kernel


class CurveKernel:
    name = "curve_kernel"
    runs_processes = False
    # Peak RSS is read after this many timed jobs, so it measures the same
    # work (and the same number of fresh spaces in the memo caches) on every
    # commit, however fast the jobs run.
    rss_after_jobs = 320
    # Job time of one round at the reference speed, measured at the commit
    # that added the benchmark; ``--seconds`` divided by it is the round count.
    nominal_round_s = 0.185

    def __init__(self, seed: int, workdir: Path):
        self.worst = checks.Worst()
        self.seen_spaces: set = set()

    def rounds(self, seed: int, stream: str):
        return gen.curve_kernel_rounds(seed, stream)

    def warmup_rounds(self, seed: int):
        return [next(self.rounds(seed, "warmup"))]

    def prepare(self, job: dict) -> dict:
        spec = _curve_spec(job["doc"])
        return dict(job, spec=spec, rational=job["doc"]["rational"])

    def properties(self, job: dict) -> dict:
        return {"rational": job["rational"], "repeated_space": job.get("space_seen", False)}

    def run(self, job: dict, layers: Layers, tracer) -> dict:
        spec, n = job["spec"], job["n"]
        space = spec.space(n)
        job["space_seen"] = space in self.seen_spaces
        layers.transform_matrix(space)
        self.seen_spaces.add(space)
        if job["rational"]:
            curve = layers.exact_rational_curve(spec, n).curve
        else:
            curve = layers.exact_curve(spec, n)
        derivative = layers.exact_curve(spec, n, 1)
        basis = layers.basis_matrix(space, np.linspace(0.0, spec.alpha, gen.CURVE_BASIS_PARAMS))
        us = np.linspace(0.0, spec.alpha, gen.CURVE_EVALUATE_PARAMS)
        values = layers.evaluate(curve, us)
        z = min(job["elevate_by"], gen.MAX_ORDER - curve.space.n)
        elevated = layers.elevate(curve, z)
        u0 = job["split_ratio"] * spec.alpha
        parts = layers.subdivide(curve, u0)
        pieces = []
        for piece in (parts.left, parts.right):
            lo, hi = piece.u_interval
            piece_us = np.linspace(lo, hi, gen.CURVE_PIECE_PARAMS)
            pieces.append((piece, piece_us, layers.piece_evaluate(piece, piece_us)))
        return {
            "curve": curve,
            "derivative": derivative,
            "basis": basis,
            "us": us,
            "values": values,
            "elevated": elevated,
            "elevate_by": z,
            "pieces": pieces,
        }

    def check(self, job: dict, out: dict):
        checks.check_curve_job(job["spec"], job["rational"], out, self.worst)

    def known_defect_jobs(self) -> list[dict]:
        return [self.prepare(job) for job in gen.known_defect_jobs()]

    def describe(self, job: dict) -> str:
        kind = "rational " * job["rational"] + job["doc"]["kind"]
        return f"{kind} n={job['n']} alpha={job['doc']['alpha']:g}"

    def summary(self) -> dict:
        return {"worst_error_to_bound": self.worst.ratio, "max_kappa": self.worst.kappa}


# ---------------------------------------------------------------------------
# mesh_export


class MeshExport:
    name = "mesh_export"
    runs_processes = False
    # After five rounds every patch document has met every size stratum.
    rss_after_jobs = len(gen.PATCH_SIZES) * (len(gen.PATCH_DOCS) + len(gen.VOLUME_DOCS))
    nominal_round_s = 1.8

    def __init__(self, seed: int, workdir: Path):
        self.worst = checks.Worst()
        self.seen_spaces: set = set()
        self.texts = {name: load_figure_text(name) for name in gen.PATCH_DOCS + gen.VOLUME_DOCS}
        self.check_rng = np.random.default_rng(seed)

    def rounds(self, seed: int, stream: str):
        return gen.mesh_export_rounds(seed, self.texts, stream)

    def warmup_rounds(self, seed: int):
        small = [dict(job, size=6 if job["figure"] in gen.VOLUME_DOCS else 12)
                 for job in next(self.rounds(seed, "warmup"))]
        return [small]

    def prepare(self, job: dict) -> dict:
        return dict(job)

    def properties(self, job: dict) -> dict:
        return {"rational": job.get("rational", False), "repeated_space": job.get("space_seen", False),
                "bundled": job["bundled"]}

    def run(self, job: dict, layers: Layers, tracer) -> dict:
        doc = layers.parse_document(job["text"])
        spec = doc.spec
        if doc.rational:
            grid = layers.exact_rational_surface(spec)
        else:
            grid = layers.exact_surface(spec)
        counts = (job["size"],) * spec.delta
        lattice = layers.sample_lattice(grid, spec.directions, counts)
        obj = layers.export_obj(lattice, grid.points)
        axes = [np.linspace(0.0, d.alpha, c) for d, c in zip(spec.directions, counts)]
        params = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        data = np.hstack([params, lattice.reshape(len(params), -1)])
        columns = [f"u{j + 1}" for j in range(spec.delta)] + ["x", "y", "z"]
        csv = layers.export_table(data, "csv", columns)
        space = (spec.directions, grid.orders)
        job["rational"] = doc.rational
        job["space_seen"] = space in self.seen_spaces
        self.seen_spaces.add(space)
        return {"spec": spec, "grid": grid, "lattice": lattice, "obj": obj,
                "csv": csv, "data": data, "columns": columns}

    def check(self, job: dict, out: dict):
        checks.check_obj(out["obj"], out["lattice"].shape, out["grid"].points.shape)
        checks.check_csv(out["csv"], out["data"], out["columns"])
        checks.check_lattice(out["spec"], out["grid"], out["lattice"], self.check_rng, self.worst)

    def summary(self) -> dict:
        return {"worst_error_to_bound": self.worst.ratio}


# ---------------------------------------------------------------------------
# cli_oneshot


class CliOneshot:
    name = "cli_oneshot"
    # Jobs run in fresh processes (this sets how their times are scaled).
    runs_processes = True
    # Every job is its own process; peak RSS is the largest child of the run.
    rss_after_jobs = None
    nominal_round_s = 1.65

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.spec_dir = workdir / "specs"
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        self.serial = 0
        self.gallery_reference = None
        self.figure_docs = {name: json.loads(load_figure_text(name)) for name in figure_names()}

    def rounds(self, seed: int, stream: str):
        return gen.cli_oneshot_rounds(seed, stream)

    def warmup_rounds(self, seed: int):
        job = next(j for j in next(self.rounds(seed, "warmup")) if j["command"] != "gallery")
        return [[job]]

    def _input(self, job: dict) -> tuple[str, dict]:
        """Path of the job's spec file (bundled or written now) and its document."""
        given = job["input"]
        if "figure" in given:
            return str(FIGURES / f"{given['figure']}.json"), self.figure_docs[given["figure"]]
        self.serial += 1
        path = self.spec_dir / f"spec{self.serial}.json"
        path.write_text(json.dumps(given["doc"], indent=2))
        return str(path), given["doc"]

    def prepare(self, job: dict) -> dict:
        command = job["command"]
        argv = [command]
        fmt = "csv"
        doc = None
        if command == "gallery":
            self.serial += 1
            argv += ["--out", str(self.workdir / f"gallery{self.serial}")]
            fmt = None
        elif command in ("xform", "basis"):
            argv += job["flags"]
        else:
            path, doc = self._input(job)
            argv += ["--spec", path]
            if command == "sample":
                delta = len(doc["directions"]) if doc["type"] == "surface" else 1
                argv += ["--samples", str(job["samples_by_delta"][delta])]
            elif command == "subdivide":
                alpha = gen.angle_value(doc["alpha"])
                argv += ["--split-at", repr(job["split_ratio"] * alpha)]
                fmt = "json"
            elif command == "elevate" and "doc" in job["input"]:
                top = max(t["k"] for c in doc["coords"] for t in c["terms"])
                argv += ["--order", str(min(max(1, top) + job["elevate_by"], gen.MAX_ORDER))]
        rational = bool(doc and doc.get("rational")) or command == "describe-rational"
        return {"command": command, "argv": argv, "format": fmt, "rational": rational}

    def properties(self, job: dict) -> dict:
        return {"rational": job["rational"], "gallery": job["command"] == "gallery"}

    def run(self, job: dict, layers: Layers, tracer) -> dict:
        self.serial += 1
        stdout = self.workdir / f"out{self.serial}.txt"
        stderr = self.workdir / f"err{self.serial}.txt"
        trace_path = self.workdir / f"spans{self.serial}.json"
        if tracer is None:
            argv = [sys.executable, "-m", "chbez.cli"] + job["argv"]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_path)] + job["argv"]
        code, usage = run_process(argv, stdout, stderr, self.env)
        return {"code": code, "rss_kb": usage.ru_maxrss, "stdout": stdout, "stderr": stderr,
                "spans": trace_path if tracer is not None else None}

    def absorb_spans(self, out: dict, tracer: spans.Tracer, parent: int):
        """Merge the child's spans below the job span (outside the timing)."""
        path = out.get("spans")
        if path is not None and path.is_file():
            payload = json.loads(path.read_text())
            tracer.merge(payload["spans"], payload["counts"], parent)

    def check(self, job: dict, out: dict):
        try:
            err = out["stderr"].read_text()
            if out["code"] in (2, 3):
                raise checks.Refused(f"cli {job['command']}: exit {out['code']}: {err.strip()[-300:]}")
            checks.require(out["code"] == 0, f"cli {job['command']}: exit {out['code']}: {err.strip()[-300:]}")
            checks.require(err == "", f"cli {job['command']}: unexpected stderr {err.strip()[-300:]}")
            if job["command"] == "gallery":
                checks.check_gallery(Path(job["argv"][-1]), self._gallery_reference())
            else:
                checks.check_cli_output(job["format"], out["stdout"].read_text(), self._expected(job["argv"]))
        finally:
            self.cleanup(job, out)

    def cleanup(self, job: dict, out: dict):
        for key in ("stdout", "stderr", "spans"):
            if out.get(key) is not None and out[key].exists():
                out[key].unlink()
        if job["command"] == "gallery":
            shutil.rmtree(job["argv"][-1], ignore_errors=True)

    def _expected(self, argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = chbez.cli.main(list(argv))
        checks.require(code == 0, f"in-process chbez.cli.main exited {code}")
        return buf.getvalue()

    def _gallery_reference(self) -> dict[str, bytes]:
        if self.gallery_reference is None:
            ref = self.workdir / "gallery-reference"
            run_gallery(ref)
            self.gallery_reference = {
                str(p.relative_to(ref)): p.read_bytes() for p in sorted(ref.rglob("*")) if p.is_file()
            }
            shutil.rmtree(ref)
        return self.gallery_reference

    def summary(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CliOneshot, MeshExport, CurveKernel)}
