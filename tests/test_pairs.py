"""The verdicts of tools/pairs.py on made-up pairs (the script itself runs in CI, A/A)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

LOWER = {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # quartiles 9.925 and 10.075


@pytest.mark.parametrize(
    "metric, change, word",
    [
        (LOWER, [v - 0.5 for v in BASE], "better"),
        (HIGHER, [v + 0.5 for v in BASE], "better"),
        (LOWER, [v - 0.1 for v in BASE], "unresolved"),  # within the base's IQR
        (LOWER, [v - 0.5 for v in BASE[:8]] + [v + 0.5 for v in BASE[8:]], "unresolved"),  # 8 wins
        (LOWER, [v * 1.2 for v in BASE], "unresolved"),  # worse, but within the bound
        (LOWER, [v * 1.3 for v in BASE], "worse"),
        (HIGHER, [v * 0.7 for v in BASE], "worse"),
    ],
)
def test_verdict(metric, change, word):
    entry = pairs.verdict(metric, BASE, change)
    assert entry["verdict"] == word
    assert entry["base_median"] == 10.0
    assert entry["base_quartiles"] == pytest.approx([9.925, 10.075])


@pytest.mark.parametrize("count", [1, 9])
def test_fewer_than_ten_pairs_claim_nothing(count):
    entry = pairs.verdict(LOWER, [10.0] * count, [9.0] * count)
    assert (entry["change_wins"], entry["base_quartiles"], entry["verdict"]) == (
        count, [10.0, 10.0], "unresolved")
