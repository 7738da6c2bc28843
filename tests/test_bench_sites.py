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


def test_traced_phases_give_every_divisor_per_layer_uses(monkeypatch):
    """`rounds.per_layer` divides by the forwards under `training.evaluate`
    in the finetune and eval phases, by the `geometry.serialize` calls, by
    the forwards of both PEFT phases, and `rounds.run` by each phase's wall
    time.  A zero among them raises outside a round's checked operations
    and ends a traced benchmark run with exit 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import rounds

    from pointpeft import backbone as bb
    from pointpeft import peft as pf

    bconfig = bb.BackboneConfig(d=16, blocks=2, patch_size=8, heads=2, num_classes=3)
    data = tr.generate_dataset(tr.target_spec(points_per_class=12), 6, 7)
    held_out = tr.generate_dataset(tr.target_spec(points_per_class=12), 3, 8)
    tconfig = tr.TrainConfig(epochs=1, batch_size=4, seed=1, learning_rate=3e-3)
    config = pf.PeftConfig(method="gem", rank=2, tokens=2)
    lt = rounds.LayerTrace()
    lt.install()
    try:
        with lt.phase("finetune"):
            store, attachment, _ = tr.finetune(
                bb.init_backbone(bconfig, 3), bconfig, config, data, tconfig, eval_clouds=held_out
            )
        with lt.phase("eval"):
            tr.evaluate(store, attachment, tr.prepare(held_out, bconfig, need_neighbors=True), bconfig)
    finally:
        lt.uninstall()
    lt.fold()
    assert lt.sum("backbone.forward", ("finetune",), in_eval=True)[0] > 0
    assert lt.sum("backbone.forward", ("eval",), in_eval=True)[0] > 0
    assert lt.sum("geometry.serialize")[0] > 0
    assert lt.sum("backbone.forward", ("finetune", "eval"))[0] > 0
    assert lt.walls["finetune"] > 0 and lt.walls["eval"] > 0
