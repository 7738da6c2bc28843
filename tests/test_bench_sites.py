"""Every library name the benchmark wraps or calls still exists.

`perfbench/rounds.py` wraps library functions by (module, attribute) and
calls `training.inference_mode`.  Tier-1 does not run the benchmark, so
without this test a change that deletes or renames one of those names
passes here and breaks only the benchmark.
"""

from pathlib import Path

from pointpeft import training as tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_wrapped_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import rounds

    sites = [(module, attr) for module, attr, _ in rounds.LayerTrace().sites()]
    sites.append((tr, "inference_mode"))
    missing = [f"{m.__name__}.{attr}" for m, attr in sites if not callable(getattr(m, attr, None))]
    assert missing == []
