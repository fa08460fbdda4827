"""Frozen gallery: every artifact must keep its recorded SHA-256.

``data/gallery_digests.json`` holds the digests of every file that
``run_gallery`` writes (artifacts, spec copies and ``manifest.json``),
recorded together with the Python and numpy versions that produced them.
The sampled geometry goes through numpy and libm, whose last bits may
change between versions, so under other versions the test skips.

``python tests/test_gallery_digests.py`` records the digests of the code it
imports; do that only when an output change is intended.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from chbez import run_gallery

DATA = Path(__file__).parent / "data" / "gallery_digests.json"
FROZEN = json.loads(DATA.read_text())


def gallery_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file ``run_gallery`` writes into ``directory``, by relative path."""
    run_gallery(directory)
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_gallery_matches_frozen_digests(tmp_path):
    recorded = (FROZEN["python"], FROZEN["numpy"])
    running = (platform.python_version(), np.__version__)
    if running != recorded:
        pytest.skip(
            f"digests recorded under Python {recorded[0]} / numpy {recorded[1]}, "
            f"running Python {running[0]} / numpy {running[1]}"
        )
    assert gallery_digests(tmp_path) == FROZEN["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = gallery_digests(Path(tmp))
    recording = {"python": platform.python_version(), "numpy": np.__version__, "sha256": digests}
    DATA.write_text(json.dumps(recording, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DATA}", file=sys.stderr)
