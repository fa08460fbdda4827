"""Frozen gallery: every artifact must keep its recorded SHA-256.

``data/gallery_digests.json`` holds the digests of every file that
``run_gallery`` writes (artifacts, spec copies and ``manifest.json``),
recorded together with the Python and numpy versions that produced them.
The sampled geometry goes through numpy and libm, whose last bits may
change between versions, so under other versions the test skips.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from chbez import run_gallery

FROZEN = json.loads((Path(__file__).parent / "data" / "gallery_digests.json").read_text())


def test_gallery_matches_frozen_digests(tmp_path):
    recorded = (FROZEN["python"], FROZEN["numpy"])
    running = (platform.python_version(), np.__version__)
    if running != recorded:
        pytest.skip(
            f"digests recorded under Python {recorded[0]} / numpy {recorded[1]}, "
            f"running Python {running[0]} / numpy {running[1]}"
        )
    run_gallery(tmp_path)
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert digests == FROZEN["sha256"]
