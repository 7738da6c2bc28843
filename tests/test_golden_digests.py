"""Fixed seeds still train, save and account to the committed numbers.

`tools/digests.py` hashes what a set of small trainings, checkpoint and
cloud round trips and the parameter accounting produce;
`golden_digests.json` holds what it printed when last rewritten.  Float64
sums depend on numpy, Python, the machine and the BLAS kernels, so the
comparison runs only in the environment the file records, and skips
elsewhere naming each field that differs.  A change that moves the
numbers on purpose rewrites the file:

    PYTHONPATH=src python tools/digests.py > tests/golden_digests.json
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_digests.json").read_text())

_spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


@functools.lru_cache(maxsize=None)
def collected():
    return digests.collect()


def skip_reason(recorded: dict, here: dict) -> str | None:
    differ = [
        f"{field} {recorded.get(field)!r} here {here.get(field)!r}"
        for field in sorted(recorded.keys() | here.keys())
        if recorded.get(field) != here.get(field)
    ]
    return "golden digests recorded under " + "; ".join(differ) if differ else None


def leaves(tree: dict, prefix: str = "") -> dict[str, str]:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(leaves(value, f"{prefix}{key}/"))
        else:
            out[prefix + key] = value
    return out


def test_training_gives_the_golden_digests():
    reason = skip_reason(GOLDEN["environment"], digests.environment())
    if reason:
        pytest.skip(reason)
    want, got = leaves(GOLDEN), leaves(collected()[0])
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} digests moved from tests/golden_digests.json:\n" + "\n".join(moved)


def test_round_trips_load_what_was_saved():
    pinned, trips = collected()
    assert len(trips) == len(pinned["checkpoints"]) + len(pinned["clouds"])
    assert [name for name, (saved, loaded) in trips.items() if saved != loaded] == []


def test_another_environment_skips_naming_each_field():
    here = digests.environment()
    assert skip_reason(here, here) is None
    reason = skip_reason(here, {**here, "openblas_core": "Haswell", "numpy": "0.0"})
    assert "openblas_core" in reason and "Haswell" in reason and "numpy" in reason
    assert "python" not in reason
    assert "machine" in skip_reason({k: v for k, v in here.items() if k != "machine"}, here)
