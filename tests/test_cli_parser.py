"""Frozen parser output: the help, usage and error bytes of the command line.

``data/cli_parser.json`` holds, for each argument list in ``CASES``, the
exit code, stdout and stderr of an in-process :func:`chbez.cli.main` at a
terminal width of 80 columns.  argparse lays its text out differently under
other Python versions, so there the comparison with the record skips; under
every version the parser that ``main`` builds for one command must print
what the parser of every command prints.

``python tests/test_cli_parser.py`` records the output of the code it
imports; do that only when an output change is intended.
"""

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import pytest

from chbez.cli import _build_parser, main

DATA = Path(__file__).parent / "data" / "cli_parser.json"
COMMANDS = ("basis", "xform", "describe", "describe-rational", "subdivide", "elevate", "sample",
            "gallery")

# Name -> argument list; every one ends in argparse's own exit, before any command runs.
CASES = {
    "help": ["--help"],
    **{f"help {command}": [command, "--help"] for command in COMMANDS},
    "help -h after flags": ["basis", "--kind", "trig", "-h"],
    "no command": [],
    "unknown command": ["transmogrify"],
    "option before the command": ["--out", "x.csv", "basis"],
    "unknown option alone": ["--version"],
    "missing --order": ["basis", "--kind", "trig", "--alpha", "1"],
    "missing --spec": ["describe"],
    "missing --split-at": ["subdivide", "--spec", "a.json"],
    "missing --out": ["gallery"],
    "unrecognized argument": ["xform", "--kind", "trig", "--alpha", "1", "--order", "2", "--bogus"],
    "unrecognized positional": ["elevate", "--spec", "a.json", "extra"],
    "bad --format choice": ["basis", "--kind", "trig", "--alpha", "1", "--order", "2",
                            "--format", "svg"],
    "bad --samples integer": ["sample", "--spec", "a.json", "--samples", "many"],
    "flag of another command": ["describe-rational", "--spec", "a.json", "--split-at", "1"],
}

# One valid argument list per command, parsed but never run.
VALID = {
    "basis": ["basis", "--kind", "trig", "--alpha", "pi/2", "--order", "3", "--format", "json"],
    "xform": ["xform", "--kind", "hyp", "--alpha", "1", "--order", "2"],
    "describe": ["describe", "--spec", "a.json", "--order", "3,4", "--derivative", "1"],
    "describe-rational": ["describe-rational", "--spec", "a.json", "--max-elevations", "5"],
    "subdivide": ["subdivide", "--spec", "a.json", "--split-at", "pi/4"],
    "elevate": ["elevate", "--spec", "a.json", "--format", "svg", "--out", "e.svg"],
    "sample": ["sample", "--spec", "a.json", "--samples", "7", "--format", "obj"],
    "gallery": ["gallery", "--out", "g"],
}


def outcome(parse, argv) -> dict:
    """Exit code, stdout and stderr of ``parse(argv)``, which must exit, at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            parse(list(argv))
    except SystemExit as exc:
        code = exc.code
    else:
        raise AssertionError(f"{argv} did not exit")
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def full_parser(argv):
    """The parser with the flags of every command."""
    return _build_parser().parse_args(argv)


def record() -> dict:
    return {
        "python": platform.python_version(),
        "cases": {name: {"argv": argv, **outcome(main, argv)} for name, argv in CASES.items()},
    }


@pytest.fixture(scope="module")
def recorded():
    data = json.loads(DATA.read_text())
    if data["python"].rpartition(".")[0] != platform.python_version().rpartition(".")[0]:
        pytest.skip(f"parser output recorded under Python {data['python']}")
    return data["cases"]


@pytest.mark.parametrize("name", CASES)
def test_parser_output_is_unchanged(recorded, name):
    expected = recorded[name]
    assert expected["argv"] == CASES[name]
    assert outcome(main, CASES[name]) == {k: expected[k] for k in ("code", "stdout", "stderr")}


@pytest.mark.parametrize("name", CASES)
def test_parser_of_one_command_prints_what_the_full_parser_prints(name):
    assert outcome(main, CASES[name]) == outcome(full_parser, CASES[name])



@pytest.mark.parametrize("command", COMMANDS)
def test_parser_of_one_command_parses_what_the_full_parser_parses(command):
    """The same Namespace, handler and every default included."""
    args = _build_parser(command).parse_args(VALID[command])
    assert args == _build_parser().parse_args(VALID[command])
    assert args.command == command and callable(args.handler)


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(CASES)} parser outputs in {DATA}", file=sys.stderr)
