"""The command line front end as a process: ``python -m chbez.cli`` in a fresh interpreter.

A process must print, exit and write exactly what an in-process ``main``
does.  Only the process entry touches the garbage collector (off while the
modules load, their objects frozen before the command), and only it keeps
the exit quiet when stdout cannot be written.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chbez
from chbez.cli import main
from test_cli import DERIVED_DOCS, FAILING_COMMANDS, RAW_SPECS

SRC = Path(chbez.__file__).resolve().parent.parent
FIGURES = SRC / "chbez" / "figures"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def child_env(**changes) -> dict:
    """The environment of a child with the package on its path; a None value removes a name."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_process(argv, stdout=subprocess.PIPE, **env):
    """``python -m chbez.cli ARGV``: (exit code, stdout bytes, stderr bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "chbez.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=child_env(**env),
        timeout=120,
    )
    return proc.returncode, proc.stdout or b"", proc.stderr


def run_in_process(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _numerical_failure():
    """The first FAILING_COMMANDS row that exits 3 on a bundled figure."""
    for command, figure, flags, code, _ in FAILING_COMMANDS:
        if code == 3 and figure and figure not in DERIVED_DOCS and figure not in RAW_SPECS:
            return [command, "--spec", str(FIGURES / f"{figure}.json"), *flags]
    raise AssertionError("no FAILING_COMMANDS row exits 3 on a bundled figure")


# Exit code and argument list of commands whose output is stdout and stderr alone.
SAME_AS_MAIN = {
    "table": (0, ["basis", "--kind", "trig", "--alpha", "pi/2", "--order", "3", "--samples", "7"]),
    "validation error": (2, ["basis", "--kind", "trig", "--alpha", "4", "--order", "3"]),
    "numerical failure": (3, _numerical_failure()),
}


@pytest.mark.parametrize("code, argv", SAME_AS_MAIN.values(), ids=SAME_AS_MAIN)
def test_process_matches_main(capsys, code, argv):
    expected = run_in_process(capsys, argv)
    assert expected[0] == code
    assert run_process(argv) == expected


def test_describe_out_matches_main(capsys, tmp_path):
    def argv(name):
        spec = str(FIGURES / "hypocycloid.json")
        return ["describe", "--spec", spec, "--out", str(tmp_path / name)]

    assert run_in_process(capsys, argv("main.csv")) == (0, b"", b"")
    assert run_process(argv("process.csv")) == (0, b"", b"")
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_gallery_matches_main(capsys, tmp_path):
    out = tmp_path / "gallery"
    expected = run_in_process(capsys, ["gallery", "--out", str(out)])
    files = tree(out)
    shutil.rmtree(out)
    assert expected[0] == 0 and files
    assert run_process(["gallery", "--out", str(out)]) == expected
    assert tree(out) == files


# A child that runs a command and prints, as JSON, whether the collector was
# on each time numpy loaded, its state at each write to stdout during the
# command, and the exit code.  Its first argument picks the entry: "import"
# (import chbez.cli, call main), "module" (python -m chbez.cli, through
# runpy) or "script" (the chbez script's wrapper: import the entry, call it).
# Any further arguments are the command, by default a hyperbolic basis table (numpy's).
PROBE = r"""
import gc, io, json, runpy, sys

loads, writes = [], []
sys.addaudithook(
    lambda event, args: event == "import" and args[0] == "numpy" and loads.append(gc.isenabled())
)


class Probe(io.StringIO):
    def write(self, text):
        writes.append([gc.isenabled(), gc.get_freeze_count()])
        return super().write(text)


argv = sys.argv[2:] or ["basis", "--kind", "hyp", "--alpha", "1", "--order", "2", "--samples", "3"]
entry, real, sys.stdout = sys.argv[1], sys.stdout, Probe()
sys.argv = ["chbez", *argv]
try:
    if entry == "import":
        import chbez.cli
        code = chbez.cli.main(argv)
    elif entry == "module":
        runpy.run_module("chbez.cli", run_name="__main__", alter_sys=True)
    else:
        from chbez.cli import _process_entry
        code = _process_entry()
except SystemExit as exc:
    code = exc.code
table, sys.stdout = sys.stdout.getvalue(), real
print(json.dumps({"code": code, "loads": loads, "writes": writes, "table": table,
                  "after": [gc.isenabled(), gc.get_freeze_count()]}))
"""


def probe(entry: str, argv=(), head="u,b0,b1,b2,b3,b4\n") -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, entry, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["table"].startswith(head)
    return result


def test_import_and_main_leave_the_collector_alone():
    result = probe("import")
    assert result["loads"] == [True]
    assert result["writes"] and all(state == [True, 0] for state in result["writes"])
    assert result["after"] == [True, 0]


def test_module_entry_collects_nothing_while_loading_and_freezes_before_the_command():
    result = probe("module")
    assert result["loads"] == [False]
    assert result["writes"] and all(on and frozen > 0 for on, frozen in result["writes"])
    assert result["after"][0]


def test_script_entry_freezes_before_the_command():
    result = probe("script")
    assert result["loads"] == [False]  # numpy loads on first use, inside the entry
    assert result["writes"] and all(on and frozen > 0 for on, frozen in result["writes"])


# A command whose numpy loads only after its spec is read (a rational curve as
# svg: the pure path describes it and numpy draws it), and one that never loads
# numpy (the pure path).
LATE_OR_NEVER = {
    "rational-curve": (["describe", "--spec", str(FIGURES / "lemniscate.json"), "--format", "svg"],
                       [False], '<?xml version="1.0"'),
    "xform": (["xform", "--kind", "trig", "--alpha", "1", "--order", "2"], [],
              "1.0,1.0,1.0,1.0,1.0\n"),
}


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("argv, loads, head", LATE_OR_NEVER.values(), ids=LATE_OR_NEVER)
def test_entries_load_numpy_only_with_the_collector_off(entry, argv, loads, head):
    result = probe(entry, argv, head)
    assert result["loads"] == loads
    assert result["writes"] and all(on and frozen > 0 for on, frozen in result["writes"])


def test_script_is_the_process_entry():
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml next to the tests")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", PYPROJECT.read_text(), re.M | re.S)
    assert table and re.search(r'^chbez = "chbez\.cli:_process_entry"$', table.group(1), re.M)


DEV_FULL = Path("/dev/full")
_NO_SPACE = b"error: stdout: cannot write (No space left on device)\n"


@pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--kind", "trig", "--alpha", "1", "--order", "3", "--samples", "5"],
        ["sample", "--spec", str(FIGURES / "torus_patch.json"), "--samples", "40"],
        ["--help"],
        ["basis", "--help"],
    ],
    ids=["basis", "sample", "help", "basis-help"],
)
def test_full_stdout_is_one_error_line(argv, unbuffered):
    with open(DEV_FULL, "wb") as full:
        assert run_process(argv, stdout=full, PYTHONUNBUFFERED=unbuffered) == (2, b"", _NO_SPACE)


@pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full on this system")
def test_full_stdout_keeps_the_gallery_files(tmp_path):
    with open(DEV_FULL, "wb") as full:
        assert run_process(["gallery", "--out", str(tmp_path)], stdout=full) == (2, b"", _NO_SPACE)
    assert (tmp_path / "manifest.json").is_file()


# A child that runs ``python -m chbez.cli`` on its arguments, stdout discarded,
# then prints its exit code and whether the vectorized formatter was loaded.
LOADS = r"""
import runpy, sys

sys.argv = ["chbez", *sys.argv[1:]]
try:
    runpy.run_module("chbez.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "chbez._vectorized" in sys.modules, file=sys.stderr)
"""


def vectorized_loaded(argv) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c", LOADS, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        timeout=120,
    )
    code, loaded = proc.stderr.split()
    assert code == "0", proc.stderr
    return loaded == "True"


# Small exports print through repr, so these processes never load the
# vectorized formatter; large ones (the gallery's patches and volumes, a
# basis table of 13,200 cells) do.
@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["describe", "--spec", str(FIGURES / "torus_patch.json"), "--format", "obj"], False),
        (["describe-rational", "--spec", str(FIGURES / "lemniscate.json")], False),
        (["subdivide", "--spec", str(FIGURES / "quadrifolium.json"), "--split-at", "1"], False),
        (["elevate", "--spec", str(FIGURES / "torus_knot.json"), "--format", "json"], False),
        (["elevate", "--spec", str(FIGURES / "hypocycloid.json"), "--format", "svg"], False),
        (["sample", "--spec", str(FIGURES / "lemniscate.json"), "--samples", "50"], False),
        (["xform", "--kind", "trig", "--alpha", "1", "--order", "8"], False),
        (["basis", "--kind", "hyp", "--alpha", "1", "--order", "32", "--samples", "200"], True),
        (["gallery", "--out", "GALLERY"], True),
    ],
    ids=["describe", "describe-rational", "subdivide", "elevate", "elevate-svg", "sample", "xform",
         "basis-32", "gallery"],
)
def test_only_large_exports_load_the_vectorized_formatter(tmp_path, argv, loaded):
    argv = [str(tmp_path) if a == "GALLERY" else a for a in argv]
    assert vectorized_loaded(argv) is loaded


# The address space of a child that runs out of memory: numpy and one
# OpenBLAS thread load in it, and so do the control net of order 20 below and
# its table (about 1 GB at the peak).
_ADDRESS_SPACE = 1_500_000_000


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _patch_4(tmp_path) -> str:
    """A 4-direction patch, one cos u factor per direction and 4 coordinates.

    Its control net has (2n + 1)^4 points: at order 32, 17.9 million.
    """
    factor = {"terms": [{"family": "cos", "k": 1, "a": 1}]}
    doc = {"version": 1, "type": "surface",
           "directions": [{"kind": "trigonometric", "alpha": 1}] * 4,
           "coords": [{"summands": [{"factors": [factor] * 4}]}] * 4}
    spec = tmp_path / "patch4.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["describe", "--spec", "PATCH_4", "--order", "20"], (0, b"")),
        (["describe", "--spec", "PATCH_4", "--order", "32"],
         (2, b"error: --order: the control net does not fit in memory\n")),
        (["sample", "--spec", str(FIGURES / "trigonometric_volume_1.json"), "--samples", "600"],
         (2, b"error: --samples: 600 samples do not fit in memory\n")),
    ],
    ids=["order-20", "order-32", "volume-samples-600"],
)
def test_what_does_not_fit_the_address_space_is_one_error_line(tmp_path, argv, expected):
    argv = [_patch_4(tmp_path) if a == "PATCH_4" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "chbez.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=child_env(OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == expected
