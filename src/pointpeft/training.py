"""Optimization loops for the toy backbone and its attachments.

Pre-training updates every parameter on source-domain scenes; fine-tuning
trains only an attachment against a shifted target distribution and verifies
at the end, byte for byte, that frozen parameters never moved.  Evaluation
accumulates one confusion matrix over the whole split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import backbone as bb
from . import peft as pf
from .autograd import ParamStore, Tensor, cross_entropy, named_rng
from .errors import DataError, FreezeViolation, NumericError, UsageError
from .geometry import (
    NeighborIndex,
    PatchPartition,
    PointCloud,
    SceneSpec,
    build_neighbor_index,
    generate_scene,
    load_cloud,
    save_cloud,
    scene_spec_text,
    serialize,
)

Array = np.ndarray

OPTIMIZERS = ("sgd_momentum", "adamw")
SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    batch_size: int = 8
    seed: int = 0
    optimizer: str = "adamw"
    lr_schedule: str = "cosine"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise UsageError(f"unknown optimizer {self.optimizer!r}")
        if self.lr_schedule not in SCHEDULES:
            raise UsageError(f"unknown lr_schedule {self.lr_schedule!r}")

    def to_dict(self) -> dict[str, str]:
        return {
            "epochs": str(self.epochs),
            "learning_rate": repr(self.learning_rate),
            "weight_decay": repr(self.weight_decay),
            "batch_size": str(self.batch_size),
            "train_seed": str(self.seed),
            "optimizer": self.optimizer,
            "lr_schedule": self.lr_schedule,
        }


def lr_at(config: TrainConfig, epoch: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return 0.5 * config.learning_rate * (1.0 + np.cos(np.pi * epoch / config.epochs))


class OptState:
    """Per-parameter optimizer slots; strict mode flags grads on frozen params."""

    ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
    SGD_MOMENTUM = 0.9

    def __init__(self, config: TrainConfig, strict: bool = True):
        self.config = config
        self.strict = strict
        self.t = 0
        self.slots: dict[str, dict[str, Array]] = {}

    def slot(self, name: str, tensor: Tensor) -> dict[str, Array]:
        if name not in self.slots:
            if self.config.optimizer == "adamw":
                self.slots[name] = {
                    "m": np.zeros_like(tensor.data),
                    "v": np.zeros_like(tensor.data),
                }
            else:
                self.slots[name] = {"vel": np.zeros_like(tensor.data)}
        return self.slots[name]


def step(store: ParamStore, state: OptState, lr: float | None = None) -> None:
    """Apply one update to every non-frozen parameter, then zero all grads."""
    config = state.config
    lr = config.learning_rate if lr is None else lr
    if state.strict:
        for name, t in store.items():
            if store.frozen(name) and t.grad is not None:
                raise FreezeViolation(f"gradient populated on frozen parameter {name}")
    state.t += 1
    for name, t in store.trainable_items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        slot = state.slot(name, t)
        if config.optimizer == "adamw":
            b1, b2, eps = state.ADAM_B1, state.ADAM_B2, state.ADAM_EPS
            slot["m"] = b1 * slot["m"] + (1 - b1) * g
            slot["v"] = b2 * slot["v"] + (1 - b2) * g * g
            mhat = slot["m"] / (1 - b1**state.t)
            vhat = slot["v"] / (1 - b2**state.t)
            t.data -= lr * (mhat / (np.sqrt(vhat) + eps) + config.weight_decay * t.data)
        else:
            slot["vel"] = state.SGD_MOMENTUM * slot["vel"] + g + config.weight_decay * t.data
            t.data -= lr * slot["vel"]
    store.zero_grads()


def inference_mode(store: ParamStore):
    """Forward passes inside build no graph; `store` is left as it was.

    The same as `autograd.no_grad()`: no freeze flag or gradient changes.
    """
    return ag.no_grad()


# ---------------------------------------------------------------------------
# metrics


class ConfusionMatrix:
    """Rows are ground truth, columns are predictions."""

    def __init__(self, num_classes: int):
        self.mat = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: Array, labels: Array) -> None:
        idx = labels * self.mat.shape[0] + pred
        self.mat += np.bincount(idx, minlength=self.mat.size).reshape(self.mat.shape)

    def merge(self, other: "ConfusionMatrix") -> None:
        self.mat += other.mat

    def metrics(self) -> dict[str, float]:
        """mIoU over classes present in prediction or truth; mAcc over classes
        with ground-truth support; allAcc = trace / total."""
        mat = self.mat
        tp = np.diag(mat).astype(float)
        gt = mat.sum(axis=1).astype(float)
        pred = mat.sum(axis=0).astype(float)
        present = (gt + pred) > 0
        union = gt + pred - tp
        iou = np.divide(tp, union, out=np.zeros_like(tp), where=union > 0)
        recall = np.divide(tp, gt, out=np.zeros_like(tp), where=gt > 0)
        return {
            "miou": float(iou[present].mean()) if present.any() else 0.0,
            "macc": float(recall[gt > 0].mean()) if (gt > 0).any() else 0.0,
            "allacc": float(tp.sum() / mat.sum()) if mat.sum() else 0.0,
        }


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Prepared:
    """A cloud with its serialization artifacts cached for reuse."""

    cloud: PointCloud
    part: PatchPartition
    nbr: NeighborIndex | None


def prepare(
    clouds: list[PointCloud], bconfig: bb.BackboneConfig, need_neighbors: bool = False
) -> list[Prepared]:
    out = []
    for cloud in clouds:
        part = serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        nbr = build_neighbor_index(cloud, bconfig.voxel_size) if need_neighbors else None
        out.append(Prepared(cloud=cloud, part=part, nbr=nbr))
    return out


def generate_dataset(spec: SceneSpec, count: int, seed: int) -> list[PointCloud]:
    """`count` scenes with per-scene seeds drawn from the "data" substream."""
    seeds = named_rng(seed, "data").integers(0, 2**31, count)
    return [generate_scene(int(s), spec) for s in seeds]


def write_dataset(out_dir, spec: SceneSpec, count: int, seed: int, command: str = "") -> list[str]:
    """Cloud files plus a manifest carrying names, seeds, and the spec hash."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    seeds = named_rng(seed, "data").integers(0, 2**31, count)
    spec_hash = ag.config_hash({"spec": scene_spec_text(spec)})
    names = []
    for i, s in enumerate(seeds):
        name = f"cloud_{i:04d}.txt"
        save_cloud(os.path.join(out_dir, name), generate_scene(int(s), spec))
        names.append((name, int(s)))
    lines = []
    if command:
        lines.append(f"# cmd: {command}")
    lines.append(f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}")
    lines.append(f"spec-hash {spec_hash}")
    lines += [f"{name} {s}" for name, s in names]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "spec.cfg"), "w") as fh:
        fh.write(scene_spec_text(spec) + "\n")
    return [name for name, _ in names]


def load_dataset(path) -> list[PointCloud]:
    """Clouds listed in a directory manifest, in manifest order."""
    import os

    manifest = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest):
        raise DataError(f"{path}: no manifest.txt; not a dataset directory")
    clouds = []
    with open(manifest) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#") or ln.startswith("spec-hash"):
                continue
            name = ln.split()[0]
            clouds.append(load_cloud(os.path.join(path, name)))
    if not clouds:
        raise DataError(f"{path}: manifest lists no clouds")
    return clouds


# ---------------------------------------------------------------------------
# domain shift recipe

SOURCE_CLASSES = ("floor", "wall", "box")


def source_spec(points_per_class: int = 64, seed: int = 0) -> SceneSpec:
    return SceneSpec(
        classes=SOURCE_CLASSES,
        points_per_class=points_per_class,
        noise_sigma=0.01,
        seed=seed,
        scale=1.0,
    )


def target_spec(points_per_class: int = 64, seed: int = 0) -> SceneSpec:
    """Shifted distribution: spheres appear (labeled as boxes), more noise,
    larger scenes."""
    return SceneSpec(
        classes=("floor", "wall", "box", "sphere"),
        points_per_class=points_per_class,
        noise_sigma=0.03,
        seed=seed,
        scale=1.5,
        labels=(0, 1, 2, 2),
    )


# ---------------------------------------------------------------------------
# run records


@dataclass
class EpochStats:
    epoch: int
    loss: float
    miou: float
    macc: float
    allacc: float


@dataclass
class RunRecord:
    kind: str
    config_hash: str
    command: str = ""
    trainable: int = 0
    total: int = 0
    wall_time: float = 0.0
    subset_seed: int | None = None
    epochs: list[EpochStats] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            "run-record",
            f"kind = {self.kind}",
            f"config_hash = {self.config_hash}",
            f"command = {self.command}",
            f"trainable = {self.trainable}",
            f"total = {self.total}",
            f"wall_time_s = {self.wall_time:.3f}",
        ]
        if self.subset_seed is not None:
            lines.append(f"subset_seed = {self.subset_seed}")
        for e in self.epochs:
            lines.append(
                f"epoch {e.epoch} loss {e.loss!r} miou {e.miou!r} "
                f"macc {e.macc!r} allacc {e.allacc!r}"
            )
        return "\n".join(lines) + "\n"

    def metrics_csv(self) -> str:
        rows = ["epoch,loss,miou,macc,allacc"]
        rows += [
            f"{e.epoch},{e.loss!r},{e.miou!r},{e.macc!r},{e.allacc!r}"
            for e in self.epochs
        ]
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# evaluation and the shared epoch loop


def frozen_prefixes(
    store: ParamStore, attachment, prepared: list[Prepared], bconfig: bb.BackboneConfig
) -> list[tuple[int, Tensor] | None]:
    """Per cloud, the `resume` point its forwards start from: None for a full
    pass, or `(k, x)` with x the residual entering the attachment's first
    non-frozen block k."""
    depth = 0 if attachment is None else attachment.frozen_depth()
    if depth == 0:
        return [None] * len(prepared)
    return [(depth, bb.frozen_prefix(pc.cloud, pc.part, store, bconfig, depth)) for pc in prepared]


def evaluate(
    store: ParamStore,
    attachment,
    prepared: list[Prepared],
    bconfig: bb.BackboneConfig,
    resume: list[tuple[int, Tensor] | None] | None = None,
) -> dict[str, float]:
    """Confusion-matrix metrics accumulated over the whole split.

    `resume`, from `frozen_prefixes` on the same split, lets each forward
    skip the frozen blocks."""
    cm = ConfusionMatrix(bconfig.num_classes)
    resume = resume or [None] * len(prepared)
    with ag.no_grad():
        for pc, start in zip(prepared, resume):
            if pc.cloud.labels is None:
                raise DataError("evaluation requires annotated clouds")
            out = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig, resume=start)
            cm.update(out.logits.data.argmax(axis=1), pc.cloud.labels)
    return cm.metrics()


def _run_epochs(
    store: ParamStore,
    attachment,
    prepared: list[Prepared],
    eval_prepared: list[Prepared],
    bconfig: bb.BackboneConfig,
    tconfig: TrainConfig,
    record: RunRecord,
) -> None:
    state = OptState(tconfig)
    shuffle_rng = named_rng(tconfig.seed, "shuffle")
    t0 = time.perf_counter()
    # Held for this run only: the prefixes are valid while the backbone is frozen.
    resume = frozen_prefixes(store, attachment, prepared, bconfig)
    eval_resume = (
        resume
        if eval_prepared is prepared
        else frozen_prefixes(store, attachment, eval_prepared, bconfig)
    )
    for epoch in range(tconfig.epochs):
        lr = lr_at(tconfig, epoch)
        order = shuffle_rng.permutation(len(prepared))
        losses = []
        for start in range(0, len(order), tconfig.batch_size):
            chunk = order[start : start + tconfig.batch_size]
            for idx in chunk:
                pc = prepared[int(idx)]
                if pc.cloud.labels is None:
                    raise DataError("training requires annotated clouds")
                out = bb.forward(
                    pc.cloud, pc.part, pc.nbr, attachment, store, bconfig, resume=resume[int(idx)]
                )
                loss = cross_entropy(out.logits, pc.cloud.labels)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"loss diverged to {value} at epoch {epoch}")
                ag.backward(ag.mul(loss, 1.0 / len(chunk)))
                losses.append(value)
            step(store, state, lr)
        metrics = evaluate(store, attachment, eval_prepared, bconfig, eval_resume)
        record.epochs.append(
            EpochStats(epoch=epoch, loss=float(np.mean(losses)), **metrics)
        )
    record.wall_time = time.perf_counter() - t0
    record.trainable = store.trainable_count
    record.total = store.total_count


def pretrain(
    clouds: list[PointCloud],
    bconfig: bb.BackboneConfig,
    tconfig: TrainConfig,
    eval_clouds: list[PointCloud] | None = None,
    command: str = "",
) -> tuple[ParamStore, RunRecord]:
    """Supervised training of every backbone parameter on source scenes."""
    store = bb.init_backbone(bconfig, tconfig.seed)
    prepared = prepare(clouds, bconfig)
    eval_prepared = prepared if eval_clouds is None else prepare(eval_clouds, bconfig)
    record = RunRecord(
        kind="pretrain",
        config_hash=ag.config_hash({**bconfig.to_dict(), **tconfig.to_dict()}),
        command=command,
    )
    _run_epochs(store, None, prepared, eval_prepared, bconfig, tconfig, record)
    return store, record


def finetune(
    backbone_store: ParamStore,
    bconfig: bb.BackboneConfig,
    pconfig: pf.PeftConfig,
    clouds: list[PointCloud],
    tconfig: TrainConfig,
    eval_clouds: list[PointCloud] | None = None,
    data_fraction: float = 1.0,
    command: str = "",
) -> tuple[ParamStore, pf.PeftAttachment, RunRecord]:
    """Train one attachment on target scenes with the backbone frozen.

    Ends by comparing every backbone parameter byte-for-byte against its
    pre-training value; any unexpected change is a hard failure.
    """
    store = backbone_store.clone()
    attachment = pf.attach(pconfig, store, bconfig, seed=tconfig.seed)
    before = store.byte_snapshot("backbone.")

    subset_seed = None
    if not 0.0 < data_fraction <= 1.0:
        raise UsageError(f"data_fraction must lie in (0, 1], got {data_fraction}")
    if data_fraction < 1.0:
        subset_seed = int(named_rng(tconfig.seed, "subset").integers(0, 2**31))
        keep = max(1, int(round(len(clouds) * data_fraction)))
        picks = np.random.default_rng(subset_seed).permutation(len(clouds))[:keep]
        clouds = [clouds[int(i)] for i in sorted(picks)]

    need_nbr = pconfig.has_spatial
    prepared = prepare(clouds, bconfig, need_neighbors=need_nbr)
    eval_prepared = (
        prepared
        if eval_clouds is None
        else prepare(eval_clouds, bconfig, need_neighbors=need_nbr)
    )
    record = RunRecord(
        kind=f"finetune-{pconfig.method}",
        config_hash=ag.config_hash(
            {**bconfig.to_dict(), **pconfig.to_dict(), **tconfig.to_dict()}
        ),
        command=command,
        subset_seed=subset_seed,
    )
    _run_epochs(store, attachment, prepared, eval_prepared, bconfig, tconfig, record)

    changed = {
        name for name, blob in before.items() if store[name].data.tobytes() != blob
    }
    if pconfig.method == "bitfit":
        allowed = {
            name
            for name in store.names()
            if name.startswith("backbone.")
            and (name.endswith(".bias") or name.endswith(".shift"))
        }
        if not changed <= allowed:
            raise FreezeViolation(
                f"bitfit changed non-bias parameters: {sorted(changed - allowed)}"
            )
    elif changed:
        raise FreezeViolation(f"frozen backbone parameters changed: {sorted(changed)}")
    return store, attachment, record
