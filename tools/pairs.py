"""Alternating base/change pairs of one benchmark workload, with a verdict per metric.

Usage, from the root of the repository::

    python3 tools/pairs.py --base REV --workload W --pairs N --seed-start S --seconds T \
        [--out FILE]

The commit ``REV`` is exported with ``git archive`` into a temporary
directory.  Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i
--seconds T`` there (the base) and in this working tree (the change), the
base first in even pairs and the change first in odd ones, so that drift of
the host hits both sides alike.  Both runs inherit this process's
environment unchanged.  ``--base HEAD`` compares the committed tree with the
working tree, and on a clean tree gives the A/A noise floor.

One JSON file is written (default ``.bench_out/pairs-W.json``): the
end-to-end metrics of both runs of each pair, then for each metric of
``BENCHMARK.json`` the medians and quartiles of both sides, the pairs the
change won and a verdict under the metric's bound:

- ``better``: over at least 10 pairs, the change won at least 9 in 10,
  and its median is better than the base's by more than the base's
  interquartile range;
- ``worse``: the change's median is worse than the base's by more than the
  metric's bound, relative to the base's median;
- ``unresolved``: anything else.

The script exits 1 when a run exits non-zero or its summary line reports
wrong output or a failed job (the rule of ``tools/bench_summary.py``), after
writing the file; else 0, whatever the verdicts.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path):
    """The tree of commit ``rev`` written under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)


def run(root: Path, args, seed: int) -> dict:
    """The summary line of one benchmark run in ``root``, with ``ok`` False if the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          text=True)
    try:
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {"correct": False, "failed": None, "metrics": {}}
    summary["ok"] = proc.returncode == 0 and summary["correct"] is True and summary["failed"] == 0
    summary["exit"] = proc.returncode
    return summary


def quartiles(values: list) -> list:
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(metric: dict, base: list, change: list) -> dict:
    """Medians, quartiles, wins and verdict of one metric, ``better`` "lower" or "higher"."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    qb, qc = quartiles(base), quartiles(change)
    gain = sign * (qc[1] - qb[1])  # positive when the change's median is better
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if -gain > metric["bound"] * abs(qb[1]):
        word = "worse"
    elif len(base) >= 10 and 10 * wins >= 9 * len(base) and gain > qb[2] - qb[0]:
        word = "better"
    else:
        word = "unresolved"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base_median": qb[1], "change_median": qc[1], "base_quartiles": [qb[0], qb[2]],
            "change_quartiles": [qc[0], qc[2]], "change_wins": wins, "verdict": word}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        choices=("cli_oneshot", "mesh_export", "curve_kernel"))
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--out", help="JSON file to write (default .bench_out/pairs-W.json)")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else ROOT / ".bench_out" / f"pairs-{args.workload}.json"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs, ok = [], True
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        export(args.base, Path(tmp))
        roots = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            seed, order = args.seed_start + i, SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                summary = run(roots[side], args, seed)
                if not summary["ok"]:
                    ok = False
                    print(f"pair {i + 1}, {side}: exit {summary['exit']}, correct "
                          f"{summary['correct']}, failed {summary['failed']}", file=sys.stderr)
                pair[side] = {m["name"]: summary["metrics"].get(m["name"], {}).get("value")
                              for m in metrics}
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", flush=True)
    commit = git("rev-parse", f"{args.base}^{{commit}}").decode().strip()
    result = {
        "base": args.base, "base_commit": commit, "change": "working tree",
        "change_head": git("rev-parse", "HEAD").decode().strip(),
        "change_dirty": bool(git("status", "--porcelain").strip()),
        "workload": args.workload, "seconds": args.seconds, "all_runs_ok": ok, "pairs": pairs,
        "metrics": {},
    }
    for m in metrics:
        values = {side: [p[side][m["name"]] for p in pairs] for side in SIDES}
        if None not in values["base"] + values["change"]:
            result["metrics"][m["name"]] = verdict(m, values["base"], values["change"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    for name, entry in result["metrics"].items():
        print(f"  {name:12} base {entry['base_median']:10.4g}  change "
              f"{entry['change_median']:10.4g}  wins {entry['change_wins']}/{len(pairs)}  "
              f"{entry['verdict']}")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
