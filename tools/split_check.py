"""Split and serial training runs: SHA-256 digests of everything they produce.

    PYTHONPATH=src python tools/split_check.py > out.json

Runs a set of small trainings (d=16, 4 blocks, 6 clouds, batch 4, 2 epochs)
twice: once serial and once with the helper split forced on through
`training._split_allowed`. The runs are `pretrain` with AdamW and with SGD
momentum, and `finetune` with every PEFT method, each with and without an
eval split. Each run's digest covers

- the tuned store: names, shapes, frozen flags and value bytes;
- `values`: the tuned store's value bytes alone, every entry's in store
  order, so a store that holds the same numbers under other names or
  shapes has the same `values` digest;
- the saved checkpoint bytes (`save_backbone` or `save_peft`);
- `RunRecord.to_text()` without its `wall_time_s` line;
- `RunRecord.metrics_csv()`;
- the metrics of a standalone `evaluate` on a held-out split.

A further run, `standing`, fine-tunes `gem` and `lora` and then evaluates
the two tuned stores back to back on one held-out split; split, both
evaluates go through one standing helper.

Prints one JSON object: `runs` maps each run to its `serial` and `split`
digests and to `parts`, the serial run's digest of each item above on its
own; `serial` and `split` digest the run digests in run order.
`standing` holds that run's `serial` and `split` digests and
`one_helper`, whether one helper served both split evaluates.
`serial_equals_split` holds when both pairs of digests are equal. Running
the script on two commits and comparing `serial` shows whether they train
to the same bytes. The script sets one BLAS thread before numpy loads, as
perfbench does.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from pointpeft import backbone as bb  # noqa: E402
from pointpeft import peft as pf  # noqa: E402
from pointpeft import training as tr  # noqa: E402

BCONFIG = bb.BackboneConfig(
    d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
    in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)),
)


def tconfig(optimizer: str = "adamw") -> tr.TrainConfig:
    return tr.TrainConfig(epochs=2, batch_size=4, seed=5, learning_rate=3e-3, optimizer=optimizer)


def clouds(count: int, seed: int):
    return tr.generate_dataset(tr.target_spec(points_per_class=12), count, seed)


def run_digests(path, store, attachment, record, need_neighbors: bool) -> dict[str, str]:
    """SHA-256 of each part a run produces, and `run` over all of them."""
    store_bytes = b"".join(
        f"{name}\t{store[name].shape}\t{int(store.frozen(name))}\n".encode("utf-8") + store[name].data.tobytes()
        for name in store.names()
    )
    with open(path, "rb") as fh:
        checkpoint = fh.read()
    text = record.to_text().splitlines(True)
    held_out = tr.prepare(clouds(3, seed=13), BCONFIG, need_neighbors=need_neighbors)
    metrics = tr.evaluate(store, attachment, held_out, BCONFIG)
    parts = {
        "store": store_bytes,
        "values": b"".join(store[name].data.tobytes() for name in store.names()),
        "checkpoint": checkpoint,
        "record": "".join(ln for ln in text if not ln.startswith("wall_time_s")).encode("utf-8"),
        "metrics_csv": record.metrics_csv().encode("utf-8"),
        "evaluate": json.dumps(metrics, sort_keys=True).encode("utf-8"),
    }
    out = {part: hashlib.sha256(blob).hexdigest() for part, blob in parts.items()}
    out["run"] = hashlib.sha256(b"".join(parts.values())).hexdigest()
    return out


def runs(path):
    """(name, digests) for every run, in a fixed order."""
    data = clouds(6, seed=3)
    for optimizer in ("adamw", "sgd_momentum"):
        for eval_clouds in (None, clouds(3, seed=4)):
            store, record = tr.pretrain(data, BCONFIG, tconfig(optimizer), eval_clouds=eval_clouds)
            bb.save_backbone(path, store, BCONFIG)
            name = f"pretrain-{optimizer}-{'eval' if eval_clouds else 'running'}"
            yield name, run_digests(path, store, None, record, False)
    backbone = bb.init_backbone(BCONFIG, 3)
    for method in pf.METHODS:
        config = pf.PeftConfig(method=method, rank=2, tokens=2)
        for eval_clouds in (None, clouds(3, seed=8)):
            store, attachment, record = tr.finetune(
                backbone, BCONFIG, config, clouds(6, seed=7), tconfig(), eval_clouds=eval_clouds
            )
            pf.save_peft(path, store, config, BCONFIG)
            name = f"finetune-{method}-{'eval' if eval_clouds else 'running'}"
            yield name, run_digests(path, store, attachment, record, config.has_spatial)


def standing() -> tuple[str, set]:
    """The digest of two tuned stores' metrics, evaluated back to back, and
    the standing helpers (their pids) that served the two evaluates."""
    backbone = bb.init_backbone(BCONFIG, 3)
    tuned = []
    for method in ("gem", "lora"):
        config = pf.PeftConfig(method=method, rank=2, tokens=2)
        store, attachment, _ = tr.finetune(backbone, BCONFIG, config, clouds(6, seed=7), tconfig())
        tuned.append((store, attachment))
    held_out = tr.prepare(clouds(3, seed=13), BCONFIG, need_neighbors=True)
    metrics, helpers = [], set()
    for store, attachment in tuned:
        metrics.append(tr.evaluate(store, attachment, held_out, BCONFIG))
        helpers.add(tr._standing and tr._standing.proc.pid)
    return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode("utf-8")).hexdigest(), helpers


def main() -> None:
    out = {"runs": {}, "standing": {}}
    with tempfile.TemporaryDirectory(prefix="split_check_") as work:
        path = os.path.join(work, "m.ckpt")
        for mode in ("serial", "split"):
            tr._split_allowed = lambda attachment, bconfig, on=(mode == "split"): on
            total = hashlib.sha256()
            for name, digests in runs(path):
                out["runs"].setdefault(name, {})[mode] = digests.pop("run")
                out["runs"][name].setdefault("parts", digests)
                total.update(out["runs"][name][mode].encode("utf-8"))
            out[mode] = total.hexdigest()
            out["standing"][mode], helpers = standing()
            if mode == "split":
                out["standing"]["one_helper"] = len(helpers) == 1 and None not in helpers
    out["serial_equals_split"] = (
        out["serial"] == out["split"] and out["standing"]["serial"] == out["standing"]["split"]
    )
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
