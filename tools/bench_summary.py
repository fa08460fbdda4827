"""Check the summary line of a saved benchmark run.

``perfbench/run.py`` exits 0 even when a job's output is wrong; the last
line of its stdout is a JSON summary.  This script reads that line from
the file it is given and exits 0 only when the summary reports correct
output and no failed job, else 1.  Run from the root of the repository:
``python3 perfbench/run.py ... | tee bench.txt`` and then
``python3 tools/bench_summary.py bench.txt``.
"""

import json, sys

with open(sys.argv[1]) as f:
    r = json.loads(f.read().splitlines()[-1])
sys.exit(not (r["correct"] is True and r["failed"] == 0))
