"""Optimization loops for the toy backbone and its attachments.

Pre-training updates every parameter on source-domain scenes; fine-tuning
trains only an attachment against a shifted target distribution and verifies
at the end, byte for byte, that frozen parameters never moved.  Evaluation
accumulates one confusion matrix over the whole split.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import backbone as bb
from . import peft as pf
from .autograd import ParamStore, Tensor, cross_entropy, named_rng
from .errors import ContractError, DataError, FreezeViolation, NumericError, UsageError
from .geometry import (
    NeighborIndex,
    PatchPartition,
    PointCloud,
    SceneSpec,
    build_neighbor_index,
    generate_scene,
    load_cloud,
    read_text,
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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise UsageError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
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


def _shared_zeros(*shape: int) -> Array:
    """Float64 zeros in anonymous memory, which a forked `_Helper` shares."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(1, size)), np.float64, size).reshape(shape)


class OptState:
    """Optimizer state for every trainable scalar as one flat vector, laid out
    in `store.trainable_items()` order by `bind`.  `w` holds the parameters
    themselves, in memory a forked `_Helper` shares; `g` takes the batch's
    gradient sum, and `s` is scratch."""

    ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
    SGD_MOMENTUM = 0.9

    def __init__(self, config: TrainConfig):
        self.config = config
        self.t = 0
        self.bound: list[tuple[str, Tensor]] | None = None

    def bind(self, items: list[tuple[str, Tensor]]) -> None:
        """On the first call, allocate the flat buffers, copy each parameter
        into `w` and point its `t.data` at its view there; later calls must
        bring the same names and tensors."""
        if self.bound is not None:
            if items != self.bound:  # names by value, tensors by identity
                raise ContractError("the trainable parameters changed between optimizer steps")
            return
        self.bound = items
        size = sum(t.numel for _, t in items)
        if self.config.optimizer == "adamw":
            self.m, self.v = np.zeros(size), np.zeros(size)
        else:
            self.vel = np.zeros(size)
        self.g, self.s = np.zeros(size), np.zeros(size)
        self.w = _shared_zeros(size)
        end = 0
        for _, t in items:
            view = self.w[end : end + t.numel].reshape(t.shape)
            view[...] = t.data
            t.data = view
            end += t.numel


def _check_frozen_grads(store: ParamStore) -> None:
    for name, t in store.frozen_items():
        if t.grad is not None:
            raise FreezeViolation(f"gradient populated on frozen parameter {name}")


def _flat_grads(items: list[tuple[str, Tensor]], out: Array) -> None:
    """The gradients of `items` side by side in `out`, zeros for a None grad."""
    grads = [np.zeros(t.numel) if t.grad is None else t.grad.ravel() for _, t in items]
    np.concatenate(grads, out=out)


def step(store: ParamStore, state: OptState, lr: float | None = None) -> None:
    """Apply one update to every non-frozen parameter, then zero all grads.

    After the freeze check, the parameters are updated in place in
    `state.w`, where `bind` put them, together with the gradients the caller
    summed into `state.g` (the training loop sums each batch there; no
    `t.grad` is read).  Every operation is elementwise and in the per-tensor
    formula's order, so the bytes do not depend on the layout."""
    config = state.config
    lr = config.learning_rate if lr is None else lr
    _check_frozen_grads(store)
    items = store.trainable_items()
    state.bind(items)
    state.t += 1
    if items:
        w, g, s = state.w, state.g, state.s
        if config.optimizer == "adamw":
            b1, b2, eps, m, v = state.ADAM_B1, state.ADAM_B2, state.ADAM_EPS, state.m, state.v
            m *= b1  # m = b1 * m + (1 - b1) * g
            m += np.multiply(g, 1 - b1, out=s)
            np.multiply(g, 1 - b2, out=s)  # v = b2 * v + (1 - b2) * g * g
            s *= g
            v *= b2
            v += s
            np.divide(v, 1 - b2**state.t, out=g)  # g = sqrt(vhat) + eps
            np.sqrt(g, out=g)
            g += eps
            np.divide(m, 1 - b1**state.t, out=s)  # s = mhat / g + wd * w
            s /= g
            s += np.multiply(w, config.weight_decay, out=g)
            s *= lr
        else:
            vel = state.vel  # vel = momentum * vel + g + wd * w
            vel *= state.SGD_MOMENTUM
            vel += g
            vel += np.multiply(w, config.weight_decay, out=g)
            np.multiply(vel, lr, out=s)
        w -= s
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
        ag.check_labels(labels, self.mat.shape[0])
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
        lines.append(ag.cmd_comment(command))
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
    manifest = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest):
        raise DataError(f"{path}: no manifest.txt; not a dataset directory")
    clouds = []
    for ln in read_text(manifest).split("\n"):
        ln = ln.strip()
        if ln and not ln.startswith("#") and not ln.startswith("spec-hash"):
            clouds.append(load_cloud(os.path.join(path, ln.split()[0])))
    if not clouds:
        raise DataError(f"{path}: manifest lists no clouds")
    return clouds


# ---------------------------------------------------------------------------
# domain shift recipe

SOURCE_CLASSES = ("floor", "wall", "box")


def source_spec(points_per_class: int = 64) -> SceneSpec:
    return SceneSpec(
        classes=SOURCE_CLASSES,
        points_per_class=points_per_class,
        noise_sigma=0.01,
        scale=1.0,
    )


def target_spec(points_per_class: int = 64) -> SceneSpec:
    """Shifted distribution: spheres appear (labeled as boxes), more noise,
    larger scenes."""
    return SceneSpec(
        classes=("floor", "wall", "box", "sphere"),
        points_per_class=points_per_class,
        noise_sigma=0.03,
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
    running_metrics: bool = False  # see `_run_epochs`
    epochs: list[EpochStats] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            "run-record",
            f"kind = {self.kind}",
            f"config_hash = {self.config_hash}",
            f"command = {' '.join(self.command.splitlines())}",  # one line, as `ag.cmd_comment`
            f"trainable = {self.trainable}",
            f"total = {self.total}",
            f"wall_time_s = {self.wall_time:.3f}",
        ]
        if self.subset_seed is not None:
            lines.append(f"subset_seed = {self.subset_seed}")
        if self.running_metrics:
            source = "training forwards, before each step; last epoch evaluated after its last step"
        else:
            source = "eval split, evaluated after each epoch's last step"
        lines.append(f"epoch_metrics = {source}")
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


def _confusion(
    store: ParamStore,
    attachment,
    prepared: list[Prepared],
    bconfig: bb.BackboneConfig,
    resume: list[bb.Resume | None],
) -> ConfusionMatrix:
    cm = ConfusionMatrix(bconfig.num_classes)
    with ag.no_grad():
        for pc, start in zip(prepared, resume):
            if pc.cloud.labels is None:
                raise DataError("evaluation requires annotated clouds")
            out = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig, resume=start)
            cm.update(out.logits.data.argmax(axis=1), pc.cloud.labels)
    return cm


def _confusion_work(store, attachment, prepared, bconfig, resume):
    """The work of counting the predictions of `prepared`'s slots."""

    def confusion(slots: range) -> ConfusionMatrix:
        part = slice(slots.start, slots.stop)
        return _confusion(store, attachment, prepared[part], bconfig, resume[part])

    return confusion


def evaluate(
    store: ParamStore,
    attachment,
    prepared: list[Prepared],
    bconfig: bb.BackboneConfig,
    resume: list[bb.Resume | None] | None = None,
    helper: _Helper | None = None,
) -> dict[str, float]:
    """Confusion-matrix metrics accumulated over the whole split.

    `resume`, from `backbone.frozen_resume` on the same split, lets each
    forward skip the frozen work.  The training loop passes those and its
    forked helper, whose `confusion` work counts the second half of this
    split.  Called on its own (no `resume`, no `helper`) with two clouds or
    more, where `_split_allowed` holds, `evaluate` ships the second half of
    the split to this process's standing helper (`_standing_helper`), which
    outlives the call and serves every later one."""
    count = len(prepared)
    if (
        resume is None
        and helper is None
        and count >= 2
        # with no resume point a pass runs every block, as the plain backbone's does
        and _split_allowed(None, bconfig)
    ):
        cm, *rest = _shipped_halves(store, attachment, prepared, bconfig)
    else:
        confusion = _confusion_work(store, attachment, prepared, bconfig, resume or [None] * count)
        cm, *rest = _halves(helper, confusion, count)
    for other in rest:
        cm.merge(other)
    return cm.metrics()


def _cloud_grads(
    store: ParamStore,
    attachment,
    pc: Prepared,
    start: bb.Resume | None,
    bconfig: bb.BackboneConfig,
    scale: float,
    epoch: int,
    cm: ConfusionMatrix | None,
    flat: Array,
) -> float:
    """One cloud's loss.  The gradient of `scale` times it goes into `flat`,
    flat in `store.trainable_items()` order (the layout `OptState` binds);
    a gradient on a frozen parameter raises, as `step`'s freeze check would.
    The store is left with no gradients.  `cm`, if given, also counts the
    forward's predictions."""
    if pc.cloud.labels is None:
        raise DataError("training requires annotated clouds")
    out = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig, resume=start)
    if cm is not None:
        cm.update(out.logits.data.argmax(axis=1), pc.cloud.labels)
    loss = cross_entropy(out.logits, pc.cloud.labels)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"loss diverged to {value} at epoch {epoch}")
    ag.backward(ag.mul(loss, scale))
    _check_frozen_grads(store)
    items = store.trainable_items()
    _flat_grads(items, flat)
    for _, t in items:  # frozen ones hold none, as just checked
        t.grad = None
    return value


def _split_allowed(attachment, bconfig: bb.BackboneConfig) -> bool:
    """Whether a pass may fork a helper: two usable CPUs, the `fork` start
    method, no other Python thread (a fork copies locks other threads may
    hold), one BLAS thread per process (`pointpeft/__init__.py`), a process
    that is not itself a helper, and a pass that runs at least one block
    (`attachment` None stands for a pass that runs them all)."""
    from . import _one_blas_thread

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        _one_blas_thread
        and not multiprocessing.current_process().daemon  # a helper may not fork
        and (cpus or 1) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and (attachment is None or attachment.frozen_depth() != bconfig.blocks)
    )


def _halves(helper: _Helper | None, work, count: int, *args) -> list:
    """`work`'s answers for slots 0..count-1, in slot order.  With a helper
    and two slots or more, the parent runs the first half (rounded down)
    and the helper its own `work` of that name on the rest."""
    mine = count if helper is None or count < 2 else count // 2
    if mine < count:
        helper.request(work.__name__, range(mine, count), args)
    answers = [work(range(mine), *args)]
    if mine < count:
        answers.append(helper.reply())
    return answers


class _Helper:
    """A forked copy of the process that runs the work functions it was
    forked with: for one `_run_epochs` call, or standing, for every
    standalone `evaluate` of the process (`_standing_helper`).

    A training helper's works are closures over the call's store,
    attachment, clouds and resume points, which the child inherits.  Arrays
    travel through memory both processes map: the parameters in
    `OptState.w`, bound before the fork, and the flat gradient of each
    cloud of the helper's share in its own row (`_run_epochs`); the parent
    steps only after a `reply`, while the helper waits for its next
    request.  The pipe carries only the requests and the small rest of each
    answer (losses, a confusion matrix) or the exception the work raised,
    which `reply` raises here.  The standing helper's one work,
    `_shipped_confusion`, takes its store, attachment and clouds with each
    request instead.  Either kind exits when the parent closes its end of
    the pipe or dies.
    """

    def __init__(self, *works):
        self.works = {work.__name__: work for work in works}
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=self._serve, args=(child,), daemon=True)
        self.proc.start()
        child.close()

    def __enter__(self) -> _Helper:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.close(kill=exc_type is not None)

    def close(self, kill: bool = False) -> None:
        """Closing the pipe ends a helper waiting for requests; after an
        exception it is killed instead (`kill`), since it may be blocked
        writing an answer nobody reads."""
        if kill:
            self.proc.kill()
        self.conn.close()
        self.proc.join()

    def request(self, name: str, slots: range, args: tuple) -> None:
        self.conn.send((name, slots, args))

    def answer(self):
        """The next answer: the work's result, or the exception it raised."""
        try:
            return self.conn.recv()
        except EOFError:
            raise ContractError("the helper process ended without replying") from None

    def reply(self):
        answer = self.answer()
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def _serve(self, conn) -> None:
        """The helper's loop; it ends when the parent closes its end or dies."""
        self.conn.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
        while True:
            try:
                name, slots, args = conn.recv()
            except EOFError:
                return
            try:
                answer = self.works[name](slots, *args)
            except Exception as exc:
                answer = exc
            conn.send(answer)


def _shipped_confusion(slots: range, store, attachment, prepared, bconfig) -> ConfusionMatrix:
    """The standing helper's work: count the predictions of `prepared`,
    which arrives with the request, as the store and attachment do; `slots`
    numbers those clouds in the caller's split."""
    return _confusion(store, attachment, prepared, bconfig, [None] * len(prepared))


# This process's standing evaluation helper, or None.  A forked child starts
# with none (`_forget_standing`).  At exit `multiprocessing` terminates and
# reaps it, as it does every daemonic child.
_standing: _Helper | None = None


def _standing_helper() -> _Helper:
    """The standing helper, forked at first use and again if it has died."""
    global _standing
    if _standing is not None and not _standing.proc.is_alive():
        _close_standing()
    if _standing is None:
        _standing = _Helper(_shipped_confusion)
    return _standing


def _close_standing(kill: bool = False) -> None:
    """End the standing helper, if any, and empty the slot."""
    global _standing
    helper, _standing = _standing, None
    if helper is not None:
        helper.close(kill)


def _forget_standing() -> None:
    """In a forked child: drop the parent's standing helper, closing the
    child's copy of its pipe, so that only the parent holds that end."""
    global _standing
    if _standing is not None:
        _standing.conn.close()
    _standing = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_standing)


def _shipped_halves(store, attachment, prepared, bconfig) -> list[ConfusionMatrix]:
    """`_halves` for a standalone `evaluate`: the standing helper counts the
    second half of `prepared`, pickled to it with the store and attachment,
    while the parent counts the first.  An exception on the parent's side,
    the helper's death included, kills the helper and empties the slot; an
    exception the work raised in the helper leaves it serving."""
    count = len(prepared)
    mine = count // 2
    helper = _standing_helper()
    try:
        shipped = (store, attachment, prepared[mine:], bconfig)
        helper.request(_shipped_confusion.__name__, range(mine, count), shipped)
        cm = _confusion(store, attachment, prepared[:mine], bconfig, [None] * mine)
        answer = helper.answer()
    except BaseException:
        _close_standing(kill=True)
        raise
    if isinstance(answer, BaseException):
        raise answer
    return [cm, answer]


def _run_epochs(
    store: ParamStore,
    attachment,
    prepared: list[Prepared],
    eval_prepared: list[Prepared],
    bconfig: bb.BackboneConfig,
    tconfig: TrainConfig,
    record: RunRecord,
) -> None:
    """A batch's flat gradients are summed into `OptState.g` in batch
    order, so a batch split with the helper gives the serial bytes: the
    parent's share (the first half, or all of a serial batch) adds each
    cloud's as it finishes, and then the helper's share, one row each of
    memory both processes map, in slot order.

    Each epoch's metrics come from `evaluate` on `eval_prepared` after the
    epoch's last step, unless `eval_prepared is prepared` (no eval split was
    passed): then every epoch but the last counts the training forwards'
    own predictions, made before each batch's step, in one confusion matrix
    over the split, and only the last epoch calls `evaluate`.  To score a
    held-out split once, pass none and `evaluate` it after the run: the
    bytes are the eval-split run's (`test_training.py::TestEvaluateOnce`)."""
    state = OptState(tconfig)
    state.bind(store.trainable_items())  # before the helper forks: it must share `state.w`
    running = eval_prepared is prepared
    record.running_metrics = running
    shuffle_rng = named_rng(tconfig.seed, "shuffle")
    t0 = time.perf_counter()
    # Held for this run only: the resume points are valid while the backbone is frozen.
    def resume_points(split: list[Prepared]) -> list[bb.Resume | None]:
        return [
            bb.frozen_resume(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig) for pc in split
        ]

    resume = resume_points(prepared)
    eval_resume = resume if running else resume_points(eval_prepared)

    def grads(slots: range, chunk: list[int], epoch: int, count: bool):
        """A share starting at slot 0 sums into `state.g` (slot 0 directly,
        each later one through `state.s`); the helper's share, starting
        later, writes slot k's gradient into row k - slots.start of `rows`."""
        cm = ConfusionMatrix(bconfig.num_classes) if count else None
        scale = 1.0 / len(chunk)
        losses = []
        for k in slots:
            if slots.start:
                flat = rows[k - slots.start]
            else:
                flat = state.s if k else state.g
            losses.append(
                _cloud_grads(
                    store, attachment, prepared[chunk[k]], resume[chunk[k]], bconfig, scale, epoch,
                    cm, flat,
                )
            )
            if k and not slots.start:
                state.g += state.s
        return losses, cm

    helper = rows = None
    if _split_allowed(attachment, bconfig):
        # the helper's share of a batch is its second half, rounded up
        rows = _shared_zeros(tconfig.batch_size - tconfig.batch_size // 2, state.w.size)
        helper = _Helper(grads, _confusion_work(store, attachment, eval_prepared, bconfig, eval_resume))
    with helper or nullcontext():
        for epoch in range(tconfig.epochs):
            lr = lr_at(tconfig, epoch)
            order = shuffle_rng.permutation(len(prepared))
            losses = []
            cm = None  # counts this epoch's training predictions
            if running and epoch < tconfig.epochs - 1:
                cm = ConfusionMatrix(bconfig.num_classes)
            for start in range(0, len(order), tconfig.batch_size):
                chunk = [int(i) for i in order[start : start + tconfig.batch_size]]
                for share, (values, counted) in enumerate(
                    _halves(helper, grads, len(chunk), chunk, epoch, cm is not None)
                ):
                    losses += values
                    if cm is not None:
                        cm.merge(counted)
                    if share:  # the helper's, after the parent's own
                        for row in rows[: len(values)]:
                            state.g += row
                step(store, state, lr)
            if cm is not None:
                metrics = cm.metrics()
            else:
                metrics = evaluate(store, attachment, eval_prepared, bconfig, eval_resume, helper)
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

    Ends by comparing every parameter the method does not train
    (`peft.trains`) byte-for-byte against its pre-training value; any change
    is a hard failure, whatever the freeze flags say.
    """
    store = backbone_store.clone()
    attachment = pf.attach(pconfig, store, bconfig, seed=tconfig.seed)
    before = {
        name: t.data.tobytes() for name, t in store.items() if not pf.trains(pconfig.method, name)
    }

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

    changed = sorted(name for name, blob in before.items() if store[name].data.tobytes() != blob)
    if changed:
        raise FreezeViolation(f"parameters {pconfig.method} does not train changed: {changed}")
    return store, attachment, record
