"""Byte identity against committed golden hashes.

`tests/golden/regen.py` runs a small CLI pipeline (both presets, every
projection, clusterer and score) and hashes every file it writes. The
bytes are promised only on the numpy/scipy/BLAS build that made them,
so on another build the test skips and names the difference.
"""

import importlib.util
import json
import os

import pytest

_REGEN = os.path.join(os.path.dirname(__file__), "golden", "regen.py")
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_pipeline_outputs_match_golden_hashes():
    with open(regen.HASHES, encoding="utf-8") as fh:
        golden = json.load(fh)
    build = regen.build()
    if build != golden["build"]:
        diff = {k: (v, build.get(k)) for k, v in golden["build"].items()
                if build.get(k) != v}
        pytest.skip(f"golden hashes were made on another build "
                    f"(recorded, running): {diff}")
    got = regen.pipeline_hashes()
    want = golden["files"]
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not differ, (f"{len(differ)} of {len(want)} files differ from the "
                        f"golden hashes: {differ}")
