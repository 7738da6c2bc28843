"""Checkpoint round trips: digests, load and save times, file sizes.

    PYTHONPATH=src python tools/checkpoint_check.py > out.json

Prints one JSON object. `digests` holds a SHA-256 over the names, shapes,
frozen flags and value bytes of each store, once as trained (`saved`) and
once after `save_checkpoint` and `load_checkpoint` (`loaded`):

- `gem-small`: the backbone perfbench's gem-small pretrains at seed 1;
- `cli-default`: a backbone of `BackboneConfig()` (d=64, 8 blocks), the
  CLI's default, pretrained for one epoch;
- `peft`: one attachment per method, fine-tuned on the gem-small backbone,
  saved with `save_peft` and composed again with `load_peft`; the digests
  cover every entry of the composed store, so an entry the checkpoint
  dropped shows as `saved` != `loaded`;
- `edges`: ±0.0, ±5e-324, ±inf, values near 1e±300 and an empty record.

`saved` equals `loaded` when the round trip is bitwise. Training does not
depend on the checkpoint encoding, so running this on two commits that
encode differently shows, through equal `loaded` digests, that both round
trips give the same store. `timings` holds medians of 7 `load_checkpoint`
and `save_checkpoint` calls on freshly initialised backbones of both sizes.
The script sets one BLAS thread before numpy loads, as perfbench does.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from pointpeft import autograd as ag  # noqa: E402
from pointpeft import backbone as bb  # noqa: E402
from pointpeft import peft as pf  # noqa: E402
from pointpeft import training as tr  # noqa: E402

SMALL = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)
DEFAULT = bb.BackboneConfig()
CALLS = 7


def digest(store: ag.ParamStore) -> str:
    h = hashlib.sha256()
    for name in store.names():
        t = store[name]
        h.update(f"{name}\t{t.shape}\t{int(store.frozen(name))}\n".encode("utf-8"))
        h.update(t.data.tobytes())
    return h.hexdigest()


def round_trip(path, store: ag.ParamStore) -> dict:
    ag.save_checkpoint(path, store, {"check": 1})
    _, loaded = ag.load_checkpoint(path)
    return {"saved": digest(store), "loaded": digest(loaded)}


def edge_store() -> ag.ParamStore:
    store = ag.ParamStore()
    store.add("signed_zero", np.array([0.0, -0.0]))
    store.add("subnormal", np.array([5e-324, -5e-324]), frozen=True)
    store.add("infinite", np.array([np.inf, -np.inf]))
    store.add("extremes", np.array([[1e300, -1e-300], [1.7976931348623157e308, 2.2250738585072014e-308]]))
    store.add("empty", np.zeros((3, 0)))
    return store


def median_ms(fn) -> float:
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


def main() -> None:
    out = {"digests": {}, "timings": {}}
    with tempfile.TemporaryDirectory(prefix="checkpoint_check_") as work:
        path = os.path.join(work, "m.ckpt")

        source = tr.generate_dataset(tr.source_spec(48), 16, 1001)
        small, _ = tr.pretrain(source, SMALL, tr.TrainConfig(epochs=10, learning_rate=1e-2, batch_size=2, seed=1))
        out["digests"]["gem-small"] = round_trip(path, small)

        tiny = tr.generate_dataset(tr.source_spec(24), 4, 7)
        default, _ = tr.pretrain(tiny, DEFAULT, tr.TrainConfig(epochs=1, learning_rate=3e-3, batch_size=2, seed=1))
        out["digests"]["cli-default"] = round_trip(path, default)

        target = tr.generate_dataset(tr.target_spec(36), 8, 1002)
        out["digests"]["peft"] = {}
        for method in pf.METHODS:
            config = pf.PeftConfig(method=method, rank=8, tokens=4, sharing="global")
            tuned, _, _ = tr.finetune(small, SMALL, config, target, tr.TrainConfig(epochs=2, learning_rate=3e-3, seed=1))
            pf.save_peft(path, tuned, config, SMALL)
            _, composed, _ = pf.load_peft(path, small, SMALL)
            out["digests"]["peft"][method] = {"saved": digest(tuned), "loaded": digest(composed)}

        out["digests"]["edges"] = round_trip(path, edge_store())

        for label, bconfig in (("gem-small", SMALL), ("cli-default", DEFAULT)):
            store = bb.init_backbone(bconfig, seed=0)
            save_ms = median_ms(lambda: bb.save_backbone(path, store, bconfig))
            load_ms = median_ms(lambda: ag.load_checkpoint(path))
            out["timings"][label] = {
                "values": store.total_count,
                "load_ms": load_ms,
                "save_ms": save_ms,
                "file_bytes": os.path.getsize(path),
            }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
