"""SHA-256 digests of the numbers that fixed-seed training, checkpoints,
cloud files and parameter accounting produce.

    PYTHONPATH=src python tools/digests.py > tests/golden_digests.json

Prints one JSON object, committed as `tests/golden_digests.json` and
recomputed by `tests/test_golden_digests.py`.  `runs` covers `pretrain`
(AdamW, SGD momentum) and `finetune` (every method), each with and without
an eval split: the tuned values, the record without `wall_time_s`, the
metrics CSV and a standalone `evaluate`.  A store's layout and the
checkpoint bytes are left out, since a re-layout moves them without moving
a number; `collect` also returns each checkpoint and cloud round trip's
digests, layout included, of what was saved and what was loaded back.
Trainings run serially (`training._split_allowed`), with one BLAS thread
set before numpy loads.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from pointpeft import autograd as ag  # noqa: E402
from pointpeft import backbone as bb  # noqa: E402
from pointpeft import geometry as geo  # noqa: E402
from pointpeft import peft as pf  # noqa: E402
from pointpeft import training as tr  # noqa: E402
from pointpeft.errors import PointPeftError  # noqa: E402

RUNS = bb.BackboneConfig(d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
                        in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)))
SMALL = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_digest(store: ag.ParamStore, layout: bool = False) -> str:
    """SHA-256 over every entry's value bytes in store order; with `layout`,
    each entry's name, shape and frozen flag go before its bytes."""
    h = hashlib.sha256()
    for name in store.names():
        if layout:
            h.update(f"{name}\t{store[name].shape}\t{int(store.frozen(name))}\n".encode("utf-8"))
        h.update(store[name].data.tobytes())
    return h.hexdigest()


def environment() -> dict[str, str]:
    """What float64 sums depend on.  numpy's bundled OpenBLAS holds kernels
    for every x86 core (DYNAMIC_ARCH) and picks one set for this CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no `mode`
        blas = {}
    core = ""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode("utf-8")
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "openblas_core": core,
    }


def clouds(count: int, seed: int):
    return tr.generate_dataset(tr.target_spec(points_per_class=12), count, seed)


def run_parts(store, attachment, record, need_neighbors: bool) -> dict[str, str]:
    text = record.to_text().splitlines(True)
    held_out = tr.prepare(clouds(3, seed=13), RUNS, need_neighbors=need_neighbors)
    metrics = tr.evaluate(store, attachment, held_out, RUNS)
    return {
        "values": store_digest(store),
        "record": sha("".join(ln for ln in text if not ln.startswith("wall_time_s"))),
        "metrics_csv": sha(record.metrics_csv()),
        "evaluate": sha(json.dumps(metrics, sort_keys=True)),
    }


def runs() -> dict[str, dict[str, str]]:
    out = {}
    tconfig = tr.TrainConfig(epochs=2, batch_size=4, seed=5, learning_rate=3e-3)
    data = clouds(6, seed=3)
    for optimizer in ("adamw", "sgd_momentum"):
        for eval_clouds in (None, clouds(3, seed=4)):
            store, record = tr.pretrain(
                data, RUNS, dataclasses.replace(tconfig, optimizer=optimizer), eval_clouds=eval_clouds
            )
            out[f"pretrain-{optimizer}-{'eval' if eval_clouds else 'running'}"] = run_parts(
                store, None, record, False
            )
    backbone = bb.init_backbone(RUNS, 3)
    for method in pf.METHODS:
        config = pf.PeftConfig(method=method, rank=2, tokens=2)
        for eval_clouds in (None, clouds(3, seed=8)):
            store, attachment, record = tr.finetune(
                backbone, RUNS, config, clouds(6, seed=7), tconfig, eval_clouds=eval_clouds
            )
            out[f"finetune-{method}-{'eval' if eval_clouds else 'running'}"] = run_parts(
                store, attachment, record, config.has_spatial
            )
    return out


def prepare_digest() -> str:
    total = hashlib.sha256()
    for count, seed in ((6, 3), (3, 4), (6, 7), (3, 8), (3, 13)):
        for pc in tr.prepare(clouds(count, seed), RUNS, need_neighbors=True):
            for artifact in (pc.part, pc.nbr):
                for field in dataclasses.fields(artifact):
                    value = getattr(artifact, field.name)
                    if field.init and hasattr(value, "tobytes"):
                        total.update(f"{field.name}\t{value.dtype}\t{value.shape}\n".encode("utf-8"))
                        total.update(value.tobytes())
    return total.hexdigest()


def accounting_digest() -> str:
    settings = {"default": {}, "r1-m1": {"rank": 1, "tokens": 1}, "r3-m5": {"rank": 3, "tokens": 5},
                "r16-m8": {"rank": 16, "tokens": 8}, "blocks-1-3": {"blocks": (1, 3)}}
    acceptance = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3)
    cases, fits = {}, {}
    for label, bconfig in (("acceptance", acceptance), ("cli-default", bb.BackboneConfig())):
        for method in pf.METHODS:
            for setting, kw in settings.items():
                config = pf.PeftConfig(method=method, **kw)
                cases[f"{label}/{method}/{setting}"] = {
                    "peft": pf.peft_param_count(config, bconfig),
                    "trainable": pf.trainable_param_count(config, bconfig),
                    "fraction": pf.trainable_fraction(config, bconfig).hex(),
                }
            for budget in (0.001, 0.005, 0.016, 0.05, 0.2):
                try:
                    fit = pf.budget_fit(method, budget, bconfig)
                    fits[f"{label}/{method}/{budget}"] = {"rank": fit.rank, "tokens": fit.tokens}
                except PointPeftError as exc:
                    fits[f"{label}/{method}/{budget}"] = f"{type(exc).__name__}: {exc}"
    return sha(json.dumps({"cases": cases, "budget_fit": fits}, sort_keys=True))


def checkpoints(path: str, trips: dict) -> dict[str, str]:
    """Each store's `values`; `trips` gets its saved and loaded digests."""
    out = {}

    def put(name, saved, loaded):
        out[name] = store_digest(saved)
        trips[f"checkpoints/{name}"] = (store_digest(saved, layout=True), store_digest(loaded, layout=True))

    def round_trip(name, store):
        ag.save_checkpoint(path, store, {"check": 1})
        put(name, store, ag.load_checkpoint(path)[1])

    source = tr.generate_dataset(tr.source_spec(48), 16, 1001)
    small, _ = tr.pretrain(source, SMALL, tr.TrainConfig(epochs=10, learning_rate=1e-2, batch_size=2, seed=1))
    round_trip("gem-small", small)
    tiny = tr.generate_dataset(tr.source_spec(24), 4, 7)
    tconfig = tr.TrainConfig(epochs=1, learning_rate=3e-3, batch_size=2, seed=1)
    default, _ = tr.pretrain(tiny, bb.BackboneConfig(), tconfig)
    round_trip("cli-default", default)
    target = tr.generate_dataset(tr.target_spec(36), 8, 1002)
    for method in pf.METHODS:
        config = pf.PeftConfig(method=method, rank=8, tokens=4, sharing="global")
        tconfig = tr.TrainConfig(epochs=2, learning_rate=3e-3, seed=1)
        tuned, _, _ = tr.finetune(small, SMALL, config, target, tconfig)
        pf.save_peft(path, tuned, config, SMALL)
        put(f"peft-{method}", tuned, pf.load_peft(path, small, SMALL)[1])
    edges = ag.ParamStore()
    edges.add("signed_zero", np.array([0.0, -0.0]))
    edges.add("subnormal", np.array([5e-324, -5e-324]), frozen=True)
    edges.add("infinite", np.array([np.inf, -np.inf]))
    edges.add("extremes", np.array([[1e300, -1e-300], [1.7976931348623157e308, 2.2250738585072014e-308]]))
    edges.add("empty", np.zeros((3, 0)))
    round_trip("edges", edges)
    return out


def cloud_digest(cloud_list: list[geo.PointCloud]) -> str:
    h = hashlib.sha256()
    for cloud in cloud_list:
        h.update(f"{cloud.n}\t{cloud.c}\t{cloud.num_classes}\t{cloud.labels is None}\n".encode("utf-8"))
        for part in (cloud.coords, cloud.feats, cloud.labels):
            if part is not None:
                h.update(part.tobytes())
    return h.hexdigest()


def cloud_digests(work: str, trips: dict) -> dict[str, str]:
    """Each cloud list's digest as generated; `trips` gets it as loaded too."""
    out = {}

    def put(name, generated, loaded):
        out[name] = cloud_digest(generated)
        trips[f"clouds/{name}"] = out[name], cloud_digest(loaded)

    for seed in (1, 2, 3):  # gem-small's source, target and held-out splits, 16 clouds each
        generated, loaded = [], []
        for i, spec in enumerate((tr.source_spec(48), tr.target_spec(36), tr.target_spec(36))):
            split_seed, path = 1000 * seed + i + 1, os.path.join(work, f"seed{seed}-split{i}")
            tr.write_dataset(path, spec, 16, split_seed)
            generated += tr.generate_dataset(spec, 16, split_seed)
            loaded += tr.load_dataset(path)
        put(f"gem-small-seed{seed}", generated, loaded)
    extremes = np.array([[0.0, -0.0, 5e-324], [-5e-324, 1e300, -1e-300],
                         [1.7976931348623157e308, 2.2250738585072014e-308, -2.5]])
    edges = [
        geo.PointCloud(coords=extremes, feats=np.zeros((3, 0)), num_classes=0),
        geo.PointCloud(coords=extremes[::-1], feats=extremes, labels=np.array([0, 2, 1]), num_classes=3),
    ]
    path, loaded = os.path.join(work, "edge.txt"), []
    for cloud in edges:
        geo.save_cloud(path, cloud)
        loaded.append(geo.load_cloud(path))
    put("edges", edges, loaded)
    return out


def collect() -> tuple[dict, dict[str, tuple[str, str]]]:
    """The digests the golden file pins, and each round trip's (saved, loaded)."""
    trips: dict[str, tuple[str, str]] = {}
    allowed = tr._split_allowed
    tr._split_allowed = lambda attachment, bconfig: False
    try:
        with tempfile.TemporaryDirectory(prefix="digests_") as work:
            out = {
                "environment": environment(),
                "runs": runs(),
                "prepare": prepare_digest(),
                "accounting": accounting_digest(),
                "checkpoints": checkpoints(os.path.join(work, "m.ckpt"), trips),
                "clouds": cloud_digests(work, trips),
            }
    finally:
        tr._split_allowed = allowed
    return out, trips


if __name__ == "__main__":
    print(json.dumps(collect()[0], indent=2))
