"""Checkpoint and cloud round trips: digests, load and save times, file sizes.

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

Each also holds `values`, a SHA-256 over the value bytes alone of the
store as trained, every entry's in store order: a store that holds the
same numbers under other names or shapes has the same `values` digest.

`saved` equals `loaded` when the round trip is bitwise. Training does not
depend on the checkpoint encoding, so running this on two commits that
encode differently shows, through equal `loaded` digests, that both round
trips give the same store. `timings` holds medians of 7 `load_checkpoint`
and `save_checkpoint` calls on freshly initialised backbones of both sizes.

`clouds` holds the same for cloud files, which are checkpoints: `save_cloud`
writes the records `coords`, `feats` and `labels` with `save_checkpoint`,
and `load_cloud` reads them with `load_checkpoint`. Each digest is a
SHA-256 over the point count, channel count, class count, coordinates,
features and labels of a list of clouds, taken of the arrays, so it does
not depend on the file format: once as generated (`saved`) and once after
`write_dataset` or `save_cloud` and then `load_dataset` or `load_cloud`
(`loaded`):

- `gem-small-seed1` .. `gem-small-seed3`: the source, target and held-out
  splits perfbench's gem-small writes at seeds 1-3, 48 clouds each;
- `edges`: an unannotated cloud with no feature channels and an annotated
  one, holding ±0.0, ±5e-324, values near 1e±300 and the largest double.

`timings` holds the median microseconds of `load_cloud` per gem-small
cloud, over 7 loads of each of seed 1's 48 files, and their mean size.
The script sets one BLAS thread before numpy loads, as perfbench does.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from pointpeft import autograd as ag  # noqa: E402
from pointpeft import backbone as bb  # noqa: E402
from pointpeft import geometry as geo  # noqa: E402
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


def values(store: ag.ParamStore) -> str:
    return hashlib.sha256(b"".join(store[name].data.tobytes() for name in store.names())).hexdigest()


def round_trip(path, store: ag.ParamStore) -> dict:
    ag.save_checkpoint(path, store, {"check": 1})
    _, loaded = ag.load_checkpoint(path)
    return {"saved": digest(store), "loaded": digest(loaded), "values": values(store)}


def edge_store() -> ag.ParamStore:
    store = ag.ParamStore()
    store.add("signed_zero", np.array([0.0, -0.0]))
    store.add("subnormal", np.array([5e-324, -5e-324]), frozen=True)
    store.add("infinite", np.array([np.inf, -np.inf]))
    store.add("extremes", np.array([[1e300, -1e-300], [1.7976931348623157e308, 2.2250738585072014e-308]]))
    store.add("empty", np.zeros((3, 0)))
    return store


def cloud_digest(clouds: list[geo.PointCloud]) -> str:
    h = hashlib.sha256()
    for cloud in clouds:
        h.update(f"{cloud.n}\t{cloud.c}\t{cloud.num_classes}\t{cloud.labels is None}\n".encode("utf-8"))
        for part in (cloud.coords, cloud.feats, cloud.labels):
            if part is not None:
                h.update(part.tobytes())
    return h.hexdigest()


def edge_clouds() -> list[geo.PointCloud]:
    extremes = np.array(
        [[0.0, -0.0, 5e-324], [-5e-324, 1e300, -1e-300], [1.7976931348623157e308, 2.2250738585072014e-308, -2.5]]
    )
    return [
        geo.PointCloud(coords=extremes, feats=np.zeros((3, 0)), num_classes=0),
        geo.PointCloud(coords=extremes[::-1], feats=extremes, labels=np.array([0, 2, 1]), num_classes=3),
    ]


def gem_small_splits(seed: int, work: str) -> tuple[list[geo.PointCloud], list[geo.PointCloud]]:
    """The clouds perfbench's gem-small generates at `seed` (source 16 x 48
    points per class, target and held-out 16 x 36), as generated and as
    loaded back from the files `write_dataset` wrote to `work`."""
    generated, loaded = [], []
    for i, (spec, count) in enumerate(((tr.source_spec(48), 16), (tr.target_spec(36), 16), (tr.target_spec(36), 16))):
        split_seed, path = 1000 * seed + i + 1, os.path.join(work, f"split{i}")
        tr.write_dataset(path, spec, count, split_seed)
        generated += tr.generate_dataset(spec, count, split_seed)
        loaded += tr.load_dataset(path)
    return generated, loaded


def cloud_checks(work: str) -> dict:
    out = {"digests": {}}
    for seed in (1, 2, 3):
        generated, loaded = gem_small_splits(seed, os.path.join(work, f"seed{seed}"))
        out["digests"][f"gem-small-seed{seed}"] = {"saved": cloud_digest(generated), "loaded": cloud_digest(loaded)}
    edges, path = edge_clouds(), os.path.join(work, "edge.txt")
    loaded = []
    for cloud in edges:
        geo.save_cloud(path, cloud)
        loaded.append(geo.load_cloud(path))
    out["digests"]["edges"] = {"saved": cloud_digest(edges), "loaded": cloud_digest(loaded)}

    files = sorted(glob.glob(os.path.join(work, "seed1", "split*", "cloud_*.txt")))
    times = []
    for _ in range(CALLS):
        for name in files:
            t0 = time.perf_counter()
            geo.load_cloud(name)
            times.append(time.perf_counter() - t0)
    out["timings"] = {
        "clouds": len(files),
        "load_us": round(1e6 * statistics.median(times), 1),
        "mean_file_bytes": round(statistics.mean(os.path.getsize(name) for name in files)),
    }
    return out


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
            out["digests"]["peft"][method] = {
                "saved": digest(tuned), "loaded": digest(composed), "values": values(tuned)
            }

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
        out["clouds"] = cloud_checks(work)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
