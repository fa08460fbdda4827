"""Fuzz the CLI with mutated bundled figures and random flags, in process.

Each of ``count`` seeded draws runs one command through ``chbez.cli.main``
with every warning turned into an error.  Six draws in seven take a bundled
figure (``src/chbez/figures``), mutate it zero to three times and run
``describe``, ``describe-rational``, ``elevate``, ``subdivide`` or
``sample`` on it, four times in five a command that takes the unmutated
figure; the seventh runs ``basis`` or ``xform`` of a drawn space.

- A mutation picks any value of the document, the root's keys included,
  and puts in its place an extreme number (1e308, -1e308, 5e-324, 2**63,
  10**400), the angle ``"pi/0"``, a bool, null, an empty list or an empty
  object, or drops it from its object or list.  A number becomes an
  extreme number more often.
- Flags are drawn per command: ``--order`` from 0 to 40 or a comma list
  of such orders, ``--derivative`` up to 10**400 (a comma list too),
  ``--split-at`` inside, at and just past the ends of the interval,
  ``--max-elevations`` from -1 to 3, ``--samples`` from 0 to 40, ``--kind``
  and ``--alpha`` of any value the space flags take or refuse, and every
  ``--format``, now and then one the command does not take.

A draw fails on a traceback, on an exit code other than 0, 2 or 3, on
anything on stderr after exit 0, and on a refusal (exit 2 or 3) that prints
other than one stderr line.  argparse's own usage errors, which exit 2
after a usage text, are the one exception.  On the first failure the script
prints the command and the traceback or stderr, keeps the spec as
``cli_fuzz_spec.json`` and exits 1; otherwise it prints how many commands
ended with each exit code.  Uses numpy and the standard library only.  Run
from the root of the repository: ``python3 tools/cli_fuzz.py [count [seed]]``
(defaults 1000 and 0).
"""

import contextlib
import copy
import io
import json
import math
import random
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import chbez.cli  # noqa: E402

FIGURES = sorted((Path(__file__).resolve().parent.parent / "src/chbez/figures").glob("*.json"))
EXTREMES = (1e308, -1e308, 5e-324, 2**63, 10**400, "pi/0")
REPLACEMENTS = (*EXTREMES, True, False, None, [], {})
SPEC_COMMANDS = ["describe", "describe-rational", "elevate", "subdivide", "sample"]
FORMATS = {
    "describe": ("csv", "json", "svg", "obj"),
    "describe-rational": ("csv", "json", "svg", "obj"),
    "elevate": ("csv", "json", "svg"),
    "subdivide": ("json",),
    "sample": ("csv", "json", "svg", "obj"),
    "basis": ("csv", "json"),
    "xform": ("csv", "json"),
}


def paths(node, prefix=()):
    """The path (keys and indices) of every value below ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from paths(child, prefix + (key,))


def mutate(rng: random.Random, doc: dict) -> None:
    """Replace one value of ``doc`` by a drawn one, or drop it.

    A number is replaced by an extreme number half the time, so that more
    mutated figures reach the numerics.
    """
    *parent, key = rng.choice(list(paths(doc)))
    for step in parent:
        doc = doc[step]
    number = isinstance(doc[key], (int, float)) and not isinstance(doc[key], bool)
    if rng.random() < 0.2:
        del doc[key]
    else:
        drawn = EXTREMES[:-1] if number and rng.random() < 0.5 else REPLACEMENTS
        doc[key] = copy.deepcopy(rng.choice(drawn))


def commands_for(doc: dict) -> list:
    """The spec commands that take the unmutated figure ``doc``."""
    curve = ["elevate", "subdivide"] if doc["type"] == "curve" else []
    return ["describe", "sample", *curve] + ["describe-rational"] * doc["rational"]


def draw_order(rng: random.Random) -> str:
    """An order from 0 to 40, or a comma list of one to four of them."""
    orders = [rng.choice([rng.randint(0, 40), rng.randint(1, 6)]) for _ in range(rng.randint(1, 4))]
    return ",".join(map(str, orders[:1] if rng.random() < 0.5 else orders))


def draw_derivative(rng: random.Random) -> str:
    """A derivative order up to 10**400, or a comma list of them."""
    values = [rng.choice([0, 1, 2, 3, 10, 1023, 1024, 10**20, 10**400, -1])
              for _ in range(rng.randint(1, 3))]
    return ",".join(map(str, values[:1] if rng.random() < 0.6 else values))


def draw_split(rng: random.Random, alpha) -> str:
    """A split parameter inside, at or just past an end of ``[0, alpha]``."""
    try:
        a = chbez.cli.parse_angle(str(alpha)) if isinstance(alpha, str) else float(alpha)
    except Exception:  # noqa: BLE001 - a mutated alpha: any value will do
        a = 1.0
    if not math.isfinite(a):
        a = 1.0
    return rng.choice([repr(rng.uniform(0.0, a)), "0", repr(a), repr(-1e-13), repr(a + 1e-13),
                       repr(a * (1.0 + 1e-9)), repr(-a), "5e-324", "nan", "inf", "pi/0", "pi/2"])


def draw_space_flags(rng: random.Random) -> list:
    """``--kind``, ``--alpha`` and ``--order`` of a space, in range or not."""
    kind = rng.choice(["trig", "hyp", "trigonometric", "hyperbolic", "cubic"])
    alpha = rng.choice([repr(rng.uniform(1e-3, 3.14)), repr(rng.uniform(1.0, 400.0)), "pi",
                        "pi/2", "3pi/4", "0", "-1", "1e308", "5e-324", "nan", "pi/0"])
    return ["--kind", kind, "--alpha", alpha, "--order", str(rng.randint(0, 40))]


def draw_command(rng: random.Random, spec: Path) -> list:
    """The argv of one command, writing its mutated figure to ``spec`` first."""
    if rng.random() < 1 / 7:
        command = rng.choice(["basis", "xform"])
        argv = [command, *draw_space_flags(rng)]
        if command == "basis":
            argv += ["--samples", str(rng.randint(0, 40))]
    else:
        doc = json.loads(rng.choice(FIGURES).read_text())
        command = rng.choice(commands_for(doc) if rng.random() < 0.8 else SPEC_COMMANDS)
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
            mutate(rng, doc)
        spec.write_text(json.dumps(doc))
        argv = [command, "--spec", str(spec)]
        if rng.random() < 0.6:
            argv += ["--order", draw_order(rng)]
        if rng.random() < 0.3:
            argv += ["--max-elevations", str(rng.randint(-1, 3))]
        if command in ("describe", "sample") and rng.random() < 0.4:
            argv += ["--derivative", draw_derivative(rng)]
        if command == "sample":
            argv += ["--samples", str(rng.randint(0, 40))]
        if command == "subdivide" and rng.random() < 0.97:  # else argparse refuses the command
            alpha = doc.get("alpha") if isinstance(doc, dict) else None
            argv += ["--split-at", draw_split(rng, alpha)]
    formats = FORMATS[command] if rng.random() < 0.95 else FORMATS["describe"]
    return argv + ["--format", rng.choice(formats)]


def run(argv: list) -> tuple:
    """Exit code, stderr and traceback (or None) of ``chbez.cli.main(argv)``.

    The exit code of an argparse refusal is its ``SystemExit`` code, marked
    as argparse's by the usage text it prints first.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = chbez.cli.main(argv)
        except SystemExit as exc:
            code = "usage" if exc.code == 2 and err.getvalue().startswith("usage:") else exc.code
        except Exception:  # noqa: BLE001 - every other escape is a failure
            return None, err.getvalue(), traceback.format_exc()
    return code, err.getvalue(), None


def failure(code, err: str, trace) -> str | None:
    """What is wrong with an outcome of :func:`run`, or None."""
    if trace is not None:
        return "traceback"
    if code == "usage":
        return None
    if code not in (0, 2, 3):
        return f"exit code {code!r}"
    if code == 0:
        return "stderr after exit 0" if err else None
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"exit {code} with {err.count(chr(10))} stderr lines"
    return None


def main(count: int, seed: int) -> int:
    rng = random.Random(f"cli-fuzz:{seed}")
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        for _ in range(count):
            argv = draw_command(rng, spec)
            code, err, trace = run(argv)
            wrong = failure(code, err, trace)
            if wrong:
                kept = Path("cli_fuzz_spec.json")
                if "--spec" in argv:
                    kept.write_text(spec.read_text())
                    argv = [str(kept) if a == str(spec) else a for a in argv]
                print(f"failure ({wrong}): chbez {' '.join(argv)}")
                print(trace or err, end="")
                return 1
            codes[code] += 1
    summary = ", ".join(f"{codes[c]} exit {c}" for c in (0, 2, 3)) + f", {codes['usage']} usage"
    print(f"{count} commands ended as expected: {summary}")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*(args + [1000, 0][len(args):])))
